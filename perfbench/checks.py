"""Independent output checks, written without the package's own cost code.

A game is handled here as plain nested lists: ``strategies[i][s]`` is the list
of resources of player i's s-th strategy, a resource at congestion c costs
``c ** degree`` to each of its users, and the social cost of a profile is its
bottleneck (the highest congestion).  Every check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction


def congestion(strategies, profile) -> dict[int, int]:
    counts: dict[int, int] = {}
    for player, choice in enumerate(profile):
        for r in strategies[player][choice]:
            counts[r] = counts.get(r, 0) + 1
    return counts


def bottleneck(strategies, profile) -> int:
    return max(congestion(strategies, profile).values())


def is_nash(strategies, degree: int, profile) -> bool:
    """Weak Nash: no player has a strictly cheaper unilateral deviation."""
    counts = congestion(strategies, profile)
    for player, choice in enumerate(profile):
        current = strategies[player][choice]
        held = set(current)
        cost = sum(counts[r] ** degree for r in current)
        for s, alt in enumerate(strategies[player]):
            if s == choice:
                continue
            dev = sum((counts.get(r, 0) + (r not in held)) ** degree for r in alt)
            if dev < cost:
                return False
    return True


def brute_force_poa(strategies, degree: int) -> tuple[int, int, int]:
    """(worst Nash bottleneck, optimal bottleneck, number of Nash states)."""
    worst, best, nash = 0, None, 0
    for profile in itertools.product(*(range(len(s)) for s in strategies)):
        b = bottleneck(strategies, profile)
        best = b if best is None else min(best, b)
        if is_nash(strategies, degree, profile):
            nash += 1
            worst = max(worst, b)
    return worst, best, nash


def check_analyze(strategies, degree: int, result: dict) -> list[str]:
    """An ``analyze`` run: exit code, and C, C* and PoA re-derived from the
    reported profiles, whose worst one must be a Nash state."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    out = result["out"]
    worst, opt = out["worst_nash_choice"], out["optimal_choice"]
    errors = []
    if len(worst) != len(strategies) or len(opt) != len(strategies):
        return ["reported profiles have the wrong length"]
    if any(not 0 <= c < len(s) for c, s in zip(worst + opt, strategies + strategies)):
        return ["reported profiles choose a strategy that does not exist"]
    if bottleneck(strategies, worst) != out["C"]:
        errors.append(f"C={out['C']} is not the bottleneck of the worst Nash profile")
    if bottleneck(strategies, opt) != out["C_star"]:
        errors.append(f"C*={out['C_star']} is not the bottleneck of the optimal profile")
    if not is_nash(strategies, degree, worst):
        errors.append("the reported worst profile is not a Nash state")
    if out["C_star"] > out["C"] or out["nash_count"] < 1:
        errors.append("C* above C, or no Nash state counted")
    if Fraction(out["poa_num"], out["poa_den"]) != Fraction(out["C"], max(out["C_star"], 1)):
        errors.append("poa is not C / C*")
    return errors


def check_suite(strategies, degree: int, result: dict) -> list[str]:
    """A ``suite --count 1`` run: exit code, the pass flags, and C, C* and the
    Nash count against an exhaustive scan of the same game."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    out = result["out"]
    errors = []
    if out["aggregate_pass"] is not True:
        errors.append("aggregate_pass is not true")
    (record,) = out["records"]
    for flag in ("pass", "nash_exists", "brd_converges", "domination_ok", "expansion_ok"):
        if record[flag] is not True:
            errors.append(f"{flag} is not true")
    worst, opt, nash = brute_force_poa(strategies, degree)
    if (record["C"], record["C_star"], record["nash_count"]) != (worst, opt, nash):
        errors.append(
            f"C, C*, nash_count = {record['C']}, {record['C_star']}, {record['nash_count']}; "
            f"exhaustive scan gives {worst}, {opt}, {nash}"
        )
    if not is_nash(strategies, degree, record["worst_nash_choice"]):
        errors.append("the reported worst profile is not a Nash state")
    return errors


def check_chain(result: dict) -> list[str]:
    """A transform → domination → resource graph → expansion chain."""
    errors = []
    if result["all_ok"] is not True:
        errors.append("verify_domination: all_ok is not true")
    if result["all_hold"] is not True:
        errors.append("expansion_report: all_hold is not true")
    if result["root_holds"] is not True:
        errors.append("expansion_report: the max-congestion root check fails")
    if result["eq_congestion"] != result["expected_congestion"]:
        errors.append("the transformed equilibrium congestion differs from the input state's")
    if result["eq_bottleneck"] != result["expected_bottleneck"]:
        errors.append(
            f"equilibrium bottleneck {result['eq_bottleneck']}, "
            f"expected {result['expected_bottleneck']}"
        )
    return errors


def corruptions(result: dict) -> list[tuple[str, dict]]:
    """Deliberately broken copies of a correct output, one per kind of fault;
    the checks must reject every one of them."""
    if "rc" not in result:
        return [
            ("all_ok false", {**result, "all_ok": False}),
            ("all_hold false", {**result, "all_hold": False}),
            ("congestion changed",
             {**result, "eq_congestion": [c + 1 for c in result["eq_congestion"]]}),
        ]
    suite = "records" in result["out"]

    def broken(**changes) -> dict:
        out = copy.deepcopy(result)
        (out["out"]["records"][0] if suite else out["out"]).update(changes)
        return out

    record = result["out"]["records"][0] if suite else result["out"]
    variants = [
        ("exit code 1", {**result, "rc": 1}),
        ("C off by one", broken(C=record["C"] + 1)),
        ("C* off by one", broken(C_star=record["C_star"] + 1)),
    ]
    if suite:
        variants.append(("nash_count off by one", broken(nash_count=record["nash_count"] + 1)))
        variants.append(("domination_ok false", broken(domination_ok=False)))
        aggregate = copy.deepcopy(result)
        aggregate["out"]["aggregate_pass"] = False
        variants.append(("aggregate_pass false", aggregate))
    else:
        variants.append(("poa not C/C*", broken(poa_num=record["poa_num"] + 1)))
    return variants
