"""Equilibrium computation and price-of-anarchy measurement.

Single-profile checks (best response, weak Nash, Rosenthal potential) run in
exact Python integer arithmetic.  Whole-space searches (optimal state, Nash
enumeration, price of anarchy) are one ``kernels.scan`` of the encoded game,
which owns the orbits, the reductions and their ties; here they honour a
cap (``cap=``, default ``DEFAULT_STATE_CAP``): on the orbits scanned, and
for Nash enumeration, which lists every profile, on the profiles too.
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


def _scan(game: Game, cap: int | None, nash: list[Profile] | None = None) -> PoaReport:
    """``kernels.scan`` under the cap (``DEFAULT_STATE_CAP`` when None),
    which bounds the orbits, and the profiles too when ``nash`` asks for
    each of them."""
    limit = DEFAULT_STATE_CAP if cap is None else cap
    if limit < 1:
        raise UsageError(f"the state cap must be at least 1, got {limit}")
    if nash is not None and game.num_states() > limit:
        raise StateSpaceTooLargeError(
            f"{game.num_states()} states exceed the cap of {limit}; raise the cap to proceed"
        )
    C, worst, c_star, optimal, nash_count = kernels.scan(kernels.encode_game(game, limit), nash)
    return PoaReport(worst_nash=worst, optimal=optimal, C=C, C_star=c_star,
                     nash_count=nash_count, poa=Fraction(C, c_star))


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
