"""Resource-graph analysis and the closed-form price-of-anarchy upper bound.

The resource graph of an equilibrium state links every resource whose
congestion exceeds a threshold to the tracked-optimal resources of the
singleton players sitting on it.  Per-node expansion and reachability checks
certify, with exact rational arithmetic, the inequalities behind the
``O(num_resources ** (1/(degree+1)))`` price-of-anarchy bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .errors import PreconditionError
from .game_core import Game, bottleneck, congestion_of, delay
from .transform import TwoStrategyGame


@dataclass(frozen=True)
class ResourceGraph:
    """Directed multigraph over resources for one equilibrium state.

    Nodes above the congestion threshold form ``v1`` and carry out-edges; all
    other resources are terminal.  ``children[x]`` keeps one entry per
    (singleton player on x, tracked resource) incidence, so multiplicities
    are preserved.  ``opt_cap`` is the optimal bottleneck used to cap how
    often one child may be counted.
    """

    congestion: np.ndarray
    degree: int
    threshold: int
    opt_cap: int
    children: dict[int, tuple[int, ...]]
    v1: frozenset[int]

    @property
    def num_resources(self) -> int:
        return len(self.congestion)

    def in_v1(self, r: int) -> bool:
        return r in self.v1


def _build(
    entries: list[tuple[tuple[int, ...], tuple[int, ...]]],
    congestion: np.ndarray,
    degree: int,
    threshold: int,
    opt_cap: int,
) -> ResourceGraph:
    v1 = frozenset(int(r) for r in np.nonzero(congestion > threshold)[0])
    for eq, _ in entries:
        if len(eq) > 1:
            for r in eq:
                if r in v1:
                    raise PreconditionError(
                        f"resource {r} is above the threshold but hosts a "
                        f"multi-resource player; transform the game first"
                    )
    children: dict[int, list[int]] = {x: [] for x in sorted(v1)}
    for eq, opt in entries:
        if len(eq) != 1:
            continue
        x = eq[0]
        if x not in v1:
            continue
        for y in opt:
            if y != x:
                children[x].append(int(y))
    return ResourceGraph(
        congestion=congestion.copy(),
        degree=degree,
        threshold=threshold,
        opt_cap=opt_cap,
        children={x: tuple(sorted(ys)) for x, ys in children.items()},
        v1=v1,
    )


def build_resource_graph(
    tsg: TwoStrategyGame,
    threshold: int | None = None,
    opt_cap: int | None = None,
) -> ResourceGraph:
    """Resource graph of a two-strategy game in its equilibrium state.

    Defaults follow the transformation pipeline: nodes above the game's own
    threshold are exactly the ones guaranteed to host only singleton players,
    and the multiplicity cap is the tracked optimal bottleneck (no resource
    sits in more tracked strategies than that).
    """
    cap = opt_cap if opt_cap is not None else max(1, tsg.tracked_opt_bottleneck())
    thr = threshold if threshold is not None else tsg.threshold
    entries = [
        (p.eq_strategy, p.opt_strategy) for _, p in sorted(tsg.players.items())
    ]
    return _build(entries, tsg.eq_congestion(), tsg.degree, thr, cap)


def build_resource_graph_from_game(
    game: Game,
    nash_profile: Sequence[int],
    optimal_profile: Sequence[int],
    threshold: int | None = None,
    opt_cap: int | None = None,
) -> ResourceGraph:
    """Resource graph for a game given its equilibrium and optimal profiles."""
    congestion = congestion_of(game, nash_profile)
    cap = opt_cap if opt_cap is not None else max(
        1, bottleneck(congestion_of(game, optimal_profile))
    )
    thr = threshold if threshold is not None else max(2 * game.degree, 3 * cap)
    entries = [
        (game.chosen(tuple(nash_profile), i), game.chosen(tuple(optimal_profile), i))
        for i in range(game.num_players)
    ]
    return _build(entries, congestion, game.degree, thr, cap)


def check_expansion(rg: ResourceGraph, x: int) -> tuple[int, Fraction, bool]:
    """Per-node expansion inequality, exact.

    lhs counts the children of x with multiplicity capped at ``opt_cap`` per
    distinct resource: congestion**degree for high children, plus
    threshold**degree for terminal children.  rhs is
    (C_x - cap) / (2 cap) * C_x**degree.  In a genuine equilibrium lhs >= rhs
    at every high node, so a failure flags a non-equilibrium input.
    """
    if not rg.in_v1(x):
        raise PreconditionError(f"resource {x} is not above the threshold")
    lhs = 0
    for y, mult in sorted(Counter(rg.children[x]).items()):
        weight = min(mult, rg.opt_cap)
        if rg.in_v1(y):
            lhs += weight * delay(int(rg.congestion[y]), rg.degree)
        else:
            lhs += weight * delay(rg.threshold, rg.degree)
    cx = int(rg.congestion[x])
    rhs = Fraction(cx - rg.opt_cap, 2 * rg.opt_cap) * delay(cx, rg.degree)
    return lhs, rhs, lhs >= rhs


def descendant_count_check(rg: ResourceGraph, root: int) -> tuple[int, bool]:
    """Reachability form of the counting bound, exact.

    Counts distinct terminal resources reachable from the root; the bound
    certifies count * cap * threshold**degree >= (C - cap)/(2 cap) * C**degree
    where C is the root congestion.
    """
    if not rg.in_v1(root):
        raise PreconditionError(f"root {root} is not above the threshold")
    seen = {root}
    stack = [root]
    v2_reached: set[int] = set()
    while stack:
        node = stack.pop()
        for y in rg.children.get(node, ()):
            if y in seen:
                continue
            seen.add(y)
            if rg.in_v1(y):
                stack.append(y)
            else:
                v2_reached.add(y)
    count = len(v2_reached)
    c = int(rg.congestion[root])
    lhs = count * rg.opt_cap * delay(rg.threshold, rg.degree)
    rhs = Fraction(c - rg.opt_cap, 2 * rg.opt_cap) * delay(c, rg.degree)
    return count, Fraction(lhs) >= rhs


def upper_bound_singleton(num_resources: int, degree: int) -> float:
    """Closed-form price-of-anarchy bound for games whose over-congested
    resources host only singleton players:
    max(2, (4 * 3**degree * (num_resources - 1)) ** (1 / (degree + 1)))."""
    if num_resources < 1:
        raise ValueError(f"num_resources must be >= 1, got {num_resources}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    raw = (4 * 3**degree * (num_resources - 1)) ** (1.0 / (degree + 1))
    return max(2.0, raw)


def upper_bound_general(num_resources: int, degree: int) -> float:
    """Price-of-anarchy bound for arbitrary games: the transformation costs a
    factor of 7 on top of the singleton-game bound."""
    return 7.0 * upper_bound_singleton(num_resources, degree)


def poa_within_general_bound(c: int, c_star: int, num_resources: int, degree: int) -> bool:
    """Exact check of C/C* <= upper_bound_general(num_resources, degree).

    Compares rationals: either the ratio is at most 14 or its (degree+1)-th
    power over 7 stays below the bound's radicand.
    """
    poa = Fraction(c, c_star)
    if poa <= 14:
        return True
    return (poa / 7) ** (degree + 1) <= 4 * 3**degree * (num_resources - 1)


def expansion_report(rg: ResourceGraph) -> dict[str, Any]:
    """Per-node ledger of the expansion inequality plus the bound values."""
    nodes = []
    for x in sorted(rg.v1):
        lhs, rhs, holds = check_expansion(rg, x)
        nodes.append({
            "resource": x,
            "congestion": int(rg.congestion[x]),
            "lhs": lhs,
            "rhs_num": rhs.numerator,
            "rhs_den": rhs.denominator,
            "holds": holds,
        })
    report: dict[str, Any] = {
        "threshold": rg.threshold,
        "opt_cap": rg.opt_cap,
        "num_high_nodes": len(rg.v1),
        "nodes": nodes,
        "upper_bound_singleton": round(upper_bound_singleton(rg.num_resources, rg.degree), 3),
        "upper_bound_general": round(upper_bound_general(rg.num_resources, rg.degree), 3),
        "all_hold": all(n["holds"] for n in nodes),
    }
    if rg.v1:
        root = max(rg.v1, key=lambda r: (int(rg.congestion[r]), -r))
        count, holds = descendant_count_check(rg, root)
        report["max_congestion_root"] = {
            "resource": int(root),
            "congestion": int(rg.congestion[root]),
            "terminal_descendants": count,
            "holds": holds,
        }
    return report
