"""Polynomial bottleneck congestion games: core types and cost calculus.

A game consists of players that each pick one pure strategy (a set of
resources).  A resource's delay is ``congestion ** degree`` and a player's
cost is the sum of delays over its chosen resources.  The social cost of a
state is the bottleneck: the maximum congestion on any resource.  All cost
arithmetic is exact Python integer arithmetic; comparisons are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import GameFormatError, InvalidProfileError, StateSpaceTooLargeError

# A profile assigns each player an index into its strategy list.
Profile = tuple[int, ...]

# Per-resource player counts for one profile.
CongestionVector = list[int]


def _integer(x: Any) -> bool:
    """A plain or numpy integer; a bool is neither."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _normalize_strategy(
    raw: Iterable[int], num_resources: int, player: int, index: int
) -> tuple[int, ...]:
    """Strategy ``index`` of ``player`` as a sorted tuple of plain ints.  Each
    id is checked for type, then range; duplicates last.  The error location
    is only formatted when an error is raised."""
    def error(problem: str) -> GameFormatError:
        return GameFormatError(f"player {player} strategy {index}: {problem}")

    resources = list(raw)
    if not resources:
        raise error("empty strategy")
    plain = True
    for r in resources:
        if type(r) is not int:
            if not _integer(r):
                raise error(f"resource id {r!r} is not an integer")
            plain = False
        if not 0 <= r < num_resources:
            raise error(f"resource id {r} out of range [0, {num_resources})")
    if len(set(resources)) != len(resources):
        raise error(f"duplicate resource in strategy {sorted(resources)}")
    return tuple(sorted(resources if plain else map(int, resources)))


def _positive(name: str, value: Any) -> int:
    """A game's ``num_resources`` or ``degree`` as a plain int >= 1."""
    if not _integer(value):
        raise GameFormatError(f"field {name!r} must be an integer, got {value!r}")
    if value < 1:
        raise GameFormatError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class Game:
    """Immutable game: ``strategies[i][s]`` is the s-th strategy of player i,
    stored as a sorted tuple of resource ids."""

    num_resources: int
    degree: int
    strategies: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        for name in ("num_resources", "degree"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if not self.strategies:
            raise GameFormatError("a game needs at least one player")
        for i, strat_set in enumerate(self.strategies):
            if not strat_set:
                raise GameFormatError(f"player {i}: empty strategy set")

    @classmethod
    def build(
        cls,
        num_resources: int,
        degree: int,
        players: Sequence[Sequence[Iterable[int]]],
    ) -> "Game":
        """Validate and normalize raw nested lists into a Game."""
        num_resources = _positive("num_resources", num_resources)
        degree = _positive("degree", degree)
        normalized = tuple(
            tuple(
                _normalize_strategy(strategy, num_resources, i, s)
                for s, strategy in enumerate(strat_set)
            )
            for i, strat_set in enumerate(players)
        )
        return cls(num_resources=num_resources, degree=degree, strategies=normalized)

    @property
    def num_players(self) -> int:
        return len(self.strategies)

    def num_states(self) -> int:
        n = 1
        for s in self.strategies:
            n *= len(s)
        return n

    def chosen(self, profile: Profile, player: int) -> tuple[int, ...]:
        return self.strategies[player][profile[player]]


def validate_profile(game: Game, profile: Sequence[int]) -> Profile:
    if len(profile) != game.num_players:
        raise InvalidProfileError(
            f"profile has {len(profile)} entries for {game.num_players} players"
        )
    for i, choice in enumerate(profile):
        if type(choice) is not int and not _integer(choice):
            raise InvalidProfileError(f"player {i}: choice {choice!r} is not an integer")
        if not 0 <= choice < len(game.strategies[i]):
            raise InvalidProfileError(
                f"player {i}: choice {choice} out of range "
                f"[0, {len(game.strategies[i])})"
            )
    return tuple(map(int, profile))


def validate_player(game: Game, player: int) -> int:
    """The id of one of the game's players, as a plain int."""
    if not (_integer(player) and 0 <= player < game.num_players):
        raise InvalidProfileError(f"no player {player!r} in a {game.num_players}-player game")
    return int(player)


def congestion_of(game: Game, profile: Sequence[int]) -> CongestionVector:
    """Number of players using each resource in the given state."""
    return _congestion(game, validate_profile(game, profile))


def _congestion(game: Game, profile: Sequence[int]) -> CongestionVector:
    """``congestion_of`` for a profile already known to be valid."""
    counts = [0] * game.num_resources
    for player, choice in enumerate(profile):
        for r in game.strategies[player][choice]:
            counts[r] += 1
    return counts


def bottleneck(cv: Sequence[int]) -> int:
    """Maximum congestion over all resources; 0 for an empty vector."""
    return int(max(cv, default=0))


def delay(congestion: int, degree: int) -> int:
    """Delay of a resource at the given congestion: congestion ** degree.

    Exact integer arithmetic; Python integers are unbounded so the result
    never wraps.  (The accelerated scan kernels use fixed-width integers but
    are guarded by a precomputed bound and fall back to the exact path.)
    This is the one definition of ``c**M``: ``power_table`` is filled from it.
    """
    if congestion < 0:
        raise ValueError(f"congestion must be >= 0, got {congestion}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return int(congestion) ** int(degree)


# One table per degree: _POWERS[M][c] == delay(c, M), extended on demand.
_POWERS: dict[int, list[int]] = {}
# Largest entry a table may grow to, in bits (8 KiB): a game file's degree is
# otherwise unbounded, and each entry is exact.
_POWER_BITS = 1 << 16


def power_table(degree: int, top: int) -> list[int]:
    """The shared list ``[0**M, 1**M, ...]`` of this degree, extended through
    at least ``top``.  Entries come from ``delay``, so a negative ``top`` or a
    degree below 1 raises its ``ValueError``, and an entry ``top**M`` longer
    than ``_POWER_BITS`` raises ``StateSpaceTooLargeError`` before any is
    taken.  Callers only read the list."""
    if top < 0 or degree < 1:
        delay(top, degree)
    table = _POWERS.setdefault(degree, [])
    if top >= len(table) and (bits := int(degree) * int(top).bit_length()) > _POWER_BITS:
        raise StateSpaceTooLargeError(
            f"delays at degree {degree} up to congestion {top} need "
            f"{bits} bits, over the {_POWER_BITS}-bit limit"
        )
    for c in range(len(table), top + 1):
        table.append(delay(c, degree))
    return table


def switch_cost(
    counts: Sequence[int] | Mapping[int, int], current: Sequence[int],
    target: Iterable[int], degree: int,
) -> int:
    """Cost of playing ``target`` after a unilateral switch from ``current``.

    This is the game's one cost rule.  A resource in both strategies keeps its
    congestion; a newly adopted one carries one more user.  So
    ``target == current`` gives the cost paid now, and ``current == ()`` the
    cost of joining on top of the given congestion.  ``counts`` may be a
    sequence or an int-keyed mapping (a ``Counter`` reads 0 off its keys).
    ``current`` is only searched with ``in``: strategies are short, so a tuple
    is fastest.  Each term is read from ``power_table``, through which a count
    outside the table (negative included: never index from the end) goes first.
    """
    table = _POWERS.get(degree) or power_table(degree, 0)
    size = len(table)
    total = 0
    for r in target:
        c = counts[r] + (r not in current)
        if not 0 <= c < size:
            table = power_table(degree, c)
            size = len(table)
        total += table[c]
    return total


def player_cost(game: Game, profile: Sequence[int], player: int) -> int:
    """Sum of delays over the player's chosen resources."""
    profile = validate_profile(game, profile)
    player = validate_player(game, player)
    chosen = game.chosen(profile, player)
    return switch_cost(_congestion(game, profile), chosen, chosen, game.degree)


# ---------------------------------------------------------------------------
# Game file format (JSON):
#   {"degree": M, "num_resources": z, "players": [[[r, ...], [r, ...]], ...]}
# ---------------------------------------------------------------------------

def game_to_dict(game: Game) -> dict[str, Any]:
    return {
        "degree": game.degree,
        "num_resources": game.num_resources,
        "players": [[list(s) for s in strat_set] for strat_set in game.strategies],
    }


def game_from_dict(data: Any) -> Game:
    if not isinstance(data, dict):
        raise GameFormatError(f"game document must be an object, got {type(data).__name__}")
    for key in ("degree", "num_resources", "players"):
        if key not in data:
            raise GameFormatError(f"missing required field {key!r}")
    players = data["players"]
    if not isinstance(players, list):
        raise GameFormatError("field 'players' must be a list")
    for i, strat_set in enumerate(players):
        if not isinstance(strat_set, list):
            raise GameFormatError(f"player {i}: strategy set must be a list")
        for s, strategy in enumerate(strat_set):
            if not isinstance(strategy, list):
                raise GameFormatError(f"player {i} strategy {s}: must be a list of resource ids")
    return Game.build(num_resources=data["num_resources"], degree=data["degree"], players=players)


def load_game(path: str) -> Game:
    """Load a game from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GameFormatError(f"game file is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise GameFormatError(f"invalid JSON: {exc}") from exc
    return game_from_dict(data)


def save_game(game: Game, path: str) -> None:
    """Write a game to a JSON file, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(game_to_dict(game), indent=2, sort_keys=True) + "\n")
