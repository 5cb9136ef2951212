"""Resource-graph analysis and the closed-form price-of-anarchy upper bound.

The resource graph of an equilibrium state links every resource whose
congestion exceeds a threshold to the tracked-optimal resources of the
singleton players sitting on it.  It keeps congestion only for those high
resources; every other resource is terminal, and the checks read it at the
threshold, so the graph's size follows the high nodes and their edges, not
``num_resources``.  Per-node expansion and reachability checks certify, with
exact rational arithmetic, the inequalities behind the
``O(num_resources ** (1/(degree+1)))`` price-of-anarchy bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, KeysView

from .errors import PreconditionError
from .game_core import power_table
from .transform import TwoStrategyGame


@dataclass(frozen=True)
class ResourceGraph:
    """Directed multigraph over resources for one equilibrium state.

    Nodes above the congestion threshold form ``v1``, carry their
    equilibrium congestion in ``congestion`` and have out-edges; all other
    resources are terminal and read as the threshold.  ``children[x]`` keeps
    one entry per (singleton player on x, tracked resource) incidence, so
    multiplicities are preserved.  ``opt_cap`` is the optimal bottleneck
    used to cap how often one child may be counted.
    """

    num_resources: int
    congestion: dict[int, int]  # high node -> its equilibrium congestion
    degree: int
    threshold: int
    opt_cap: int
    children: dict[int, tuple[int, ...]]

    @property
    def v1(self) -> KeysView[int]:
        return self.congestion.keys()


def build_resource_graph(tsg: TwoStrategyGame) -> ResourceGraph:
    """Resource graph of a two-strategy game in its equilibrium state.

    Nodes above the game's own threshold are exactly the ones guaranteed to
    host only singleton players, and the multiplicity cap is the tracked
    optimal bottleneck (no resource sits in more tracked strategies than
    that).
    """
    for pid in tsg.multi_ids():
        for r in tsg.players[pid].eq_strategy:
            if tsg._eq_cong[r] > tsg.threshold:
                raise PreconditionError(
                    f"resource {r} is above the threshold but hosts a "
                    f"multi-resource player; transform the game first"
                )
    # With no multi player above the threshold, every high resource hosts
    # singletons only, so the roster index lists them all.
    congestion = {r: c for r in sorted(tsg._singles) if (c := tsg._eq_cong[r]) > tsg.threshold}
    children = {}
    for x in congestion:
        ys = [y for pid in tsg.singles_on(x)
              for y in tsg.players[pid].opt_strategy if y != x]
        children[x] = tuple(sorted(ys))
    return ResourceGraph(
        num_resources=tsg.num_resources,
        congestion=congestion,
        degree=tsg.degree,
        threshold=tsg.threshold,
        opt_cap=max(1, tsg.tracked_opt_bottleneck()),
        children=children,
    )


def check_expansion(rg: ResourceGraph, x: int) -> tuple[int, Fraction, bool]:
    """Per-node expansion inequality, exact.

    lhs counts the children of x with multiplicity capped at ``opt_cap`` per
    distinct resource: congestion**degree for high children, plus
    threshold**degree for terminal children.  rhs is
    (C_x - cap) / (2 cap) * C_x**degree.  In a genuine equilibrium lhs >= rhs
    at every high node, so a failure flags a non-equilibrium input.
    """
    if x not in rg.v1:
        raise PreconditionError(f"resource {x} is not above the threshold")
    cx = rg.congestion[x]
    loads = {y: rg.congestion.get(y, rg.threshold) for y in rg.children[x]}
    powers = power_table(rg.degree, max(cx, rg.threshold, *loads.values()))
    lhs = sum(min(mult, rg.opt_cap) * powers[loads[y]]
              for y, mult in Counter(rg.children[x]).items())
    rhs = Fraction(cx - rg.opt_cap, 2 * rg.opt_cap) * powers[cx]
    return lhs, rhs, lhs >= rhs


def descendant_count_check(rg: ResourceGraph, root: int) -> tuple[int, bool]:
    """Reachability form of the counting bound, exact.

    Counts distinct terminal resources reachable from the root; the bound
    certifies count * cap * threshold**degree >= (C - cap)/(2 cap) * C**degree
    where C is the root congestion.
    """
    if root not in rg.v1:
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
            if y in rg.congestion:  # a high node
                stack.append(y)
            else:
                v2_reached.add(y)
    count = len(v2_reached)
    c = rg.congestion[root]
    powers = power_table(rg.degree, max(c, rg.threshold))
    lhs = count * rg.opt_cap * powers[rg.threshold]
    rhs = Fraction(c - rg.opt_cap, 2 * rg.opt_cap) * powers[c]
    return count, Fraction(lhs) >= rhs


def upper_bound_singleton(num_resources: int, degree: int) -> float:
    """Closed-form price-of-anarchy bound for games whose over-congested
    resources host only singleton players:
    max(2, (4 * 3**degree * (num_resources - 1)) ** (1 / (degree + 1)))."""
    if num_resources < 1:
        raise ValueError(f"num_resources must be >= 1, got {num_resources}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if num_resources == 1:
        return 2.0
    # The root through the log of the exact radicand, which stops fitting a
    # float near degree 640.
    raw = math.exp(math.log(4 * 3**degree * (num_resources - 1)) / (degree + 1))
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
            "congestion": rg.congestion[x],
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
        root = max(rg.v1, key=lambda r: (rg.congestion[r], -r))
        count, holds = descendant_count_check(rg, root)
        report["max_congestion_root"] = {
            "resource": root,
            "congestion": rg.congestion[root],
            "terminal_descendants": count,
            "holds": holds,
        }
    return report
