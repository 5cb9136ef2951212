"""Equilibrium computation and price-of-anarchy measurement.

Single-profile checks (best response, weak Nash, Rosenthal potential) run in
exact Python integer arithmetic.  Whole-space searches (optimal state, Nash
enumeration, price of anarchy) run through the scan kernel and honour a
state-count cap (``cap=``, default ``DEFAULT_STATE_CAP``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
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


def _check_cap(game: Game, cap: int | None) -> int:
    limit = DEFAULT_STATE_CAP if cap is None else cap
    if limit < 1:
        raise UsageError(f"the state cap must be at least 1, got {limit}")
    total = game.num_states()
    if total > limit:
        raise StateSpaceTooLargeError(
            f"{total} states exceed the cap of {limit}; raise the cap to proceed"
        )
    return total


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
