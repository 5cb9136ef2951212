"""Equilibrium computation and price-of-anarchy measurement.

Single-profile checks (best response, weak Nash, Rosenthal potential) run in
exact Python integer arithmetic.  Whole-space searches (optimal state, Nash
enumeration, price of anarchy) run through the scan kernel and honour a
configurable state-count cap.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Sequence

from . import kernels
from .errors import NonConvergenceError, StateSpaceTooLargeError, StructuralError, UsageError
from .game_core import (
    Game,
    Profile,
    bottleneck,
    congestion_of,
    delay,
    validate_profile,
)

DEFAULT_STATE_CAP = 10_000_000
_CAP_ENV = "POLYBOTTLENECK_STATE_CAP"


def state_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(_CAP_ENV)
    if not env:
        return DEFAULT_STATE_CAP
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"{_CAP_ENV} must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class EquilibriumReport:
    profile: Profile
    bottleneck: int
    is_nash: bool
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


def deviation_cost(
    game: Game,
    profile: Sequence[int],
    player: int,
    strategy_index: int,
    counts=None,
) -> int:
    """Cost the player would pay after unilaterally switching strategy.

    Evaluated with the player removed and re-added: a resource it keeps
    contributes its current delay, a newly adopted one contributes the delay
    at congestion + 1.
    """
    if counts is None:
        counts = congestion_of(game, profile)
    chosen = set(game.chosen(tuple(profile), player))
    total = 0
    for r in game.strategies[player][strategy_index]:
        c = int(counts[r]) if r in chosen else int(counts[r]) + 1
        total += delay(c, game.degree)
    return total


def best_response(game: Game, profile: Sequence[int], player: int) -> int:
    """Index of a cost-minimizing strategy, others fixed; ties -> lowest index."""
    profile = validate_profile(game, profile)
    counts = congestion_of(game, profile)
    best_idx = 0
    best_cost = deviation_cost(game, profile, player, 0, counts)
    for s in range(1, len(game.strategies[player])):
        cost = deviation_cost(game, profile, player, s, counts)
        if cost < best_cost:
            best_idx, best_cost = s, cost
    return best_idx


def is_nash(game: Game, profile: Sequence[int]) -> bool:
    """Weak equilibrium: no player has a strictly cheaper alternative."""
    profile = validate_profile(game, profile)
    counts = congestion_of(game, profile)
    for i in range(game.num_players):
        cur = deviation_cost(game, profile, i, profile[i], counts)
        for s in range(len(game.strategies[i])):
            if s != profile[i] and deviation_cost(game, profile, i, s, counts) < cur:
                return False
    return True


def rosenthal_potential(game: Game, profile: Sequence[int]) -> int:
    """Exact potential: sum over resources of 1**M + 2**M + ... + C_r**M.

    Any unilateral strategy change moves the potential by exactly the mover's
    cost change, so strict greedy moves strictly decrease it.
    """
    counts = congestion_of(game, profile)
    m = game.degree
    total = 0
    for c in counts:
        total += sum(delay(j, m) for j in range(1, int(c) + 1))
    return total


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
    start_potential = rosenthal_potential(game, profile)
    budget = max_steps if max_steps is not None else start_potential + 1
    moves = 0
    potential = start_potential
    stable_streak = 0
    player = 0
    n = game.num_players
    while stable_streak < n:
        counts = congestion_of(game, profile)
        cur = deviation_cost(game, profile, player, profile[player], counts)
        best_idx = best_response(game, profile, player)
        best_cost = deviation_cost(game, profile, player, best_idx, counts)
        if best_cost < cur:
            if moves >= budget:
                raise NonConvergenceError(
                    f"no equilibrium after {budget} moves (potential at start "
                    f"was {start_potential})"
                )
            profile[player] = best_idx
            moves += 1
            new_potential = rosenthal_potential(game, profile)
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
    final = tuple(profile)
    return EquilibriumReport(
        profile=final,
        bottleneck=bottleneck(congestion_of(game, final)),
        is_nash=True,
        potential=potential,
        moves=moves,
    )


def _check_cap(game: Game, cap: int | None) -> int:
    limit = state_cap(cap)
    total = game.num_states()
    if total > limit:
        raise StateSpaceTooLargeError(
            f"{total} states exceed the cap of {limit}; raise the cap to proceed"
        )
    return total


def enumerate_states(game: Game, cap: int | None = None) -> Iterator[Profile]:
    """All profiles in lexicographic order (player 0 varies slowest)."""
    _check_cap(game, cap)
    ranges = [range(len(s)) for s in game.strategies]
    return itertools.product(*ranges)


def _scan(game: Game, cap: int | None, nash: list[Profile] | None = None) -> PoaReport:
    """One pass over every profile: optimum, worst Nash state, Nash count,
    and, into ``nash`` if given, every Nash profile in order.  Ties go to the
    lexicographically first profile: argmin/argmax pick the first hit inside
    a chunk, and later chunks replace only on strict improvement."""
    total = _check_cap(game, cap)
    enc = kernels.encode_game(game)
    opt_val: int | None = None
    opt_idx = 0
    worst_val: int | None = None
    worst_idx = 0
    nash_count = 0
    for start in range(0, total, enc.chunk):
        vals, mask = kernels.scan_range(enc, start, min(start + enc.chunk, total))
        k = int(vals.argmin())
        if opt_val is None or int(vals[k]) < opt_val:
            opt_val, opt_idx = int(vals[k]), start + k
        positions = mask.nonzero()[0]
        nash_count += len(positions)
        if nash is not None:
            nash.extend(kernels.profile_from_index(enc, start + int(p)) for p in positions)
        if len(positions):
            j = positions[int(vals[positions].argmax())]
            if worst_val is None or int(vals[j]) > worst_val:
                worst_val, worst_idx = int(vals[j]), start + int(j)
    if opt_val is None:
        raise StructuralError("scan covered no profile; every game has at least one")
    if worst_val is None:
        raise StructuralError("no Nash equilibrium found; finite games always have one")
    return PoaReport(
        worst_nash=kernels.profile_from_index(enc, worst_idx),
        optimal=kernels.profile_from_index(enc, opt_idx),
        C=worst_val,
        C_star=opt_val,
        nash_count=nash_count,
        poa=Fraction(worst_val, opt_val),
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
