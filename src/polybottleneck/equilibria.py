"""Equilibrium computation and price-of-anarchy measurement.

Single-profile checks (best response, weak Nash, Rosenthal potential) run in
exact Python integer arithmetic.  Whole-space searches (optimal state, Nash
enumeration, price of anarchy) run through the scan kernel, one orbit per
composition of each type of interchangeable players, and honour a cap
(``cap=``, default ``DEFAULT_STATE_CAP``): on the orbits scanned, and for
Nash enumeration, which lists every profile, on the profiles too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Any, Sequence

from . import kernels
from .errors import NonConvergenceError, StateSpaceTooLargeError, StructuralError, UsageError
from .game_core import (
    Game,
    Profile,
    _congestion,
    power_table,
    switch_cost,
    validate_profile,
)

DEFAULT_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class EquilibriumReport:
    profile: Profile
    bottleneck: int
    potential: int
    moves: int


@dataclass(frozen=True)
class PoaReport:
    worst_nash: Profile
    optimal: Profile
    C: int
    C_star: int
    nash_count: int
    poa: Fraction

    def to_dict(self) -> dict[str, Any]:
        return {
            "C": self.C,
            "C_star": self.C_star,
            "poa_num": self.poa.numerator,
            "poa_den": self.poa.denominator,
            "nash_count": self.nash_count,
            "worst_nash_choice": list(self.worst_nash),
            "optimal_choice": list(self.optimal),
        }


def _costs(game: Game, profile: Sequence[int], player: int, counts) -> list[int]:
    """Cost of each of the player's strategies, the others fixed: entry s is
    what the player pays after switching to s (its current cost at s == the
    current choice)."""
    current = game.strategies[player][profile[player]]
    return [switch_cost(counts, current, s, game.degree) for s in game.strategies[player]]


def best_response(game: Game, profile: Sequence[int], player: int) -> int:
    """Index of a cost-minimizing strategy, others fixed; ties -> lowest index."""
    profile = validate_profile(game, profile)
    costs = _costs(game, profile, player, _congestion(game, profile))
    return costs.index(min(costs))


def is_nash(game: Game, profile: Sequence[int]) -> bool:
    """Weak equilibrium: no player has a strictly cheaper alternative."""
    profile = validate_profile(game, profile)
    return _is_nash(game, profile, _congestion(game, profile))


def _is_nash(game: Game, profile: Profile, counts: Sequence[int]) -> bool:
    """``is_nash`` of a valid profile whose congestion is ``counts``."""
    for i in range(game.num_players):
        costs = _costs(game, profile, i, counts)
        if min(costs) < costs[profile[i]]:
            return False
    return True


def rosenthal_potential(game: Game, profile: Sequence[int]) -> int:
    """Exact potential: sum over resources of 1**M + 2**M + ... + C_r**M.

    Any unilateral strategy change moves the potential by exactly the mover's
    cost change, so strict greedy moves strictly decrease it.
    """
    return _potential(game, validate_profile(game, profile))


def _potential(game: Game, profile: Sequence[int]) -> int:
    """``rosenthal_potential`` of a profile already known to be valid.
    Congestion is recounted from the strategies; ``prefix[c]`` holds
    1**M + ... + c**M."""
    counts = _congestion(game, profile)
    top = max(counts)
    prefix = list(accumulate(power_table(game.degree, top)[:top + 1]))
    return sum(prefix[c] for c in counts)


def best_response_dynamics(
    game: Game,
    start: Sequence[int],
    max_steps: int | None = None,
) -> EquilibriumReport:
    """Round-robin strict best-response dynamics from the given state.

    Only strictly improving moves are taken, so the potential decreases by at
    least 1 per move and the walk ends at a weak Nash profile after at most
    ``rosenthal_potential(game, start)`` moves.
    """
    profile = list(validate_profile(game, start))
    counts = _congestion(game, profile)  # kept in step with every move
    start_potential = _potential(game, profile)
    budget = max_steps if max_steps is not None else start_potential + 1
    moves = 0
    potential = start_potential
    stable_streak = 0
    player = 0
    n = game.num_players
    while stable_streak < n:
        costs = _costs(game, profile, player, counts)
        cur = costs[profile[player]]
        best_cost = min(costs)
        if best_cost < cur:
            if moves >= budget:
                raise NonConvergenceError(
                    f"no equilibrium after {budget} moves (potential at start "
                    f"was {start_potential})"
                )
            for r in game.chosen(profile, player):
                counts[r] -= 1
            profile[player] = costs.index(best_cost)
            for r in game.chosen(profile, player):
                counts[r] += 1
            moves += 1
            # Recounted from the strategies, so drift in ``counts`` shows up here too.
            new_potential = _potential(game, profile)
            if potential - new_potential != cur - best_cost:
                raise StructuralError(
                    f"potential fell {potential} -> {new_potential} but the mover's "
                    f"cost fell {cur} -> {best_cost}"
                )
            potential = new_potential
            stable_streak = 0
        else:
            stable_streak += 1
        player = (player + 1) % n
    return EquilibriumReport(
        profile=tuple(profile),
        bottleneck=max(counts),
        potential=potential,
        moves=moves,
    )


def _check_cap(cap: int | None) -> int:
    """The cap in force: ``cap``, or ``DEFAULT_STATE_CAP`` when it is None."""
    limit = DEFAULT_STATE_CAP if cap is None else cap
    if limit < 1:
        raise UsageError(f"the state cap must be at least 1, got {limit}")
    return limit


def _arrangements(choices: list[int]):
    """Every distinct ordering of a sorted list, in lexicographic order."""
    a = list(choices)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def _orbit_profiles(enc: kernels.GameArrays, idx: int) -> list[Profile]:
    """Every profile of orbit ``idx``: each type's members take every
    distinct ordering of the representative's choices."""
    rep = kernels.profile_from_index(enc, idx)
    out = []
    for parts in product(*(_arrangements([rep[i] for i in players]) for players in enc.members)):
        profile = list(rep)
        for players, part in zip(enc.members, parts):
            for i, choice in zip(players, part):
                profile[i] = choice
        out.append(tuple(profile))
    return out


def _tie_break(enc: kernels.GameArrays, best: tuple[int, int] | None, value: int,
               hits) -> tuple[int, int]:
    """The running (bottleneck, orbit) after a chunk whose orbits ``hits``,
    ascending, reach ``value``, no worse than ``best``'s: a strictly better
    value replaces ``best``; an equal one keeps whichever representative is
    lexicographically first."""
    idx = kernels.first_orbit(enc, hits)
    if best is None or value != best[0]:
        return value, idx
    return value, kernels.first_orbit(enc, [best[1], idx])


def _scan(game: Game, cap: int | None, nash: list[Profile] | None = None) -> PoaReport:
    """One pass over every orbit: optimum, worst Nash state, Nash count,
    and, into ``nash`` if given, every Nash profile in order.  Ties go to the
    lexicographically first profile, the first representative among the
    tied orbits.  The cap bounds the orbits, and also the profiles when
    ``nash`` asks for each of them."""
    limit = _check_cap(cap)
    if nash is not None and game.num_states() > limit:
        raise StateSpaceTooLargeError(
            f"{game.num_states()} states exceed the cap of {limit}; raise the cap to proceed"
        )
    enc = kernels.encode_game(game, limit)
    total = enc.num_orbits
    weighted = len(enc.members) < game.num_players  # some orbit holds several profiles
    opt: tuple[int, int] | None = None
    worst: tuple[int, int] | None = None
    nash_count = 0
    for start in range(0, total, enc.chunk):
        vals, mask = kernels.scan_range(enc, start, min(start + enc.chunk, total))
        # In lexicographic orbit order the first hit is the one kept.
        k = int(vals.argmin())
        if opt is None or vals[k] <= opt[0]:
            hits = [start + k] if enc.in_order else start + (vals == vals[k]).nonzero()[0]
            opt = _tie_break(enc, opt, int(vals[k]), hits)
        positions = mask.nonzero()[0]
        nash_count += (int(kernels.orbit_sizes(enc, start + positions).sum()) if weighted
                       else len(positions))
        if nash is not None:
            nash.extend(p for q in positions for p in _orbit_profiles(enc, start + int(q)))
        if len(positions):
            j = positions[int(vals[positions].argmax())]
            if worst is None or vals[j] >= worst[0]:
                hits = ([start + int(j)] if enc.in_order
                        else start + positions[vals[positions] == vals[j]])
                worst = _tie_break(enc, worst, int(vals[j]), hits)
    if opt is None:
        raise StructuralError("scan covered no profile; every game has at least one")
    if worst is None:
        raise StructuralError("no Nash equilibrium found; finite games always have one")
    if nash is not None:
        nash.sort()
    return PoaReport(
        worst_nash=kernels.profile_from_index(enc, worst[1]),
        optimal=kernels.profile_from_index(enc, opt[1]),
        C=worst[0],
        C_star=opt[0],
        nash_count=nash_count,
        poa=Fraction(worst[0], opt[0]),
    )


def optimal_profile(game: Game, cap: int | None = None) -> tuple[Profile, int]:
    """Exhaustive argmin of the bottleneck; ties -> lexicographically first."""
    report = _scan(game, cap)
    return report.optimal, report.C_star


def enumerate_nash(game: Game, cap: int | None = None) -> list[Profile]:
    """All weak Nash profiles, in lexicographic order."""
    found: list[Profile] = []
    _scan(game, cap, found)
    return found


def price_of_anarchy(game: Game, cap: int | None = None) -> PoaReport:
    """Worst Nash bottleneck over the optimal bottleneck, as an exact ratio."""
    return _scan(game, cap)
