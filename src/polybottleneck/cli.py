"""Command-line interface: analyze, suite, transform, expansion, lower-bound, sweep.

Exit codes: 0 all requested verifications passed, 1 a verification failed or
a computation could not run, 2 usage or input-format errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

import numpy as np

from . import equilibria, expansion, generators, lower_bound, transform
from .errors import (
    GameFormatError,
    PolyBottleneckError,
    PreconditionError,
    StateSpaceTooLargeError,
    UsageError,
)
from .game_core import Game, load_game, save_game


def _emit(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_analyze(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    report = equilibria.price_of_anarchy(game, cap=args.cap)
    _emit(report.to_dict())
    return 0


def _suite_record(game: Game, index: int, rng: np.random.Generator, cap: int | None) -> dict:
    record: dict[str, Any] = {
        "index": index,
        "players": game.num_players,
        "num_resources": game.num_resources,
        "degree": game.degree,
    }
    poa = equilibria.price_of_anarchy(game, cap=cap)
    record.update(poa.to_dict())
    record["nash_exists"] = poa.nash_count >= 1
    record["poa_within_bound"] = expansion.poa_within_general_bound(
        poa.C, poa.C_star, game.num_resources, game.degree
    )
    record["upper_bound_general"] = round(
        expansion.upper_bound_general(game.num_resources, game.degree), 3
    )

    brd_ok = True
    for _ in range(3):
        start = tuple(
            int(rng.integers(0, len(s))) for s in game.strategies
        )
        budget = equilibria.rosenthal_potential(game, start)
        result = equilibria.best_response_dynamics(game, start, max_steps=budget + 1)
        brd_ok = brd_ok and result.moves <= budget and result.is_nash
    record["brd_converges"] = brd_ok

    tsg = transform.transform_to_singletons(game, poa.worst_nash, poa.optimal)
    record["transform_no_op"] = tsg.no_op
    domination = transform.verify_domination(game, poa.worst_nash, tsg, strict=False)
    record["domination_ok"] = domination.all_ok
    record["tracked_opt_bottleneck"] = domination.opt_bottleneck

    graph = expansion.build_resource_graph(tsg)
    ledger = expansion.expansion_report(graph)
    record["expansion_ok"] = ledger["all_hold"] and (
        "max_congestion_root" not in ledger or ledger["max_congestion_root"]["holds"]
    )
    record["high_nodes"] = ledger["num_high_nodes"]

    record["pass"] = bool(
        record["nash_exists"]
        and record["poa_within_bound"]
        and record["brd_converges"]
        and record["domination_ok"]
        and record["expansion_ok"]
    )
    return record


def cmd_suite(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.count):
        game = generators.random_game(
            rng,
            max_players=args.max_players,
            max_resources=args.max_resources,
            max_strategies=args.max_strategies,
            degrees=tuple(args.degrees),
        )
        records.append(_suite_record(game, i, rng, args.cap))
    aggregate = all(r["pass"] for r in records)
    _emit({
        "seed": args.seed,
        "count": args.count,
        "aggregate_pass": aggregate,
        "records": records,
    })
    return 0 if aggregate else 1


def cmd_transform(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    poa = equilibria.price_of_anarchy(game, cap=args.cap)
    trace: list | None = [] if args.trace else None
    tsg = transform.transform_to_singletons(game, poa.worst_nash, poa.optimal, trace=trace)
    if trace is not None:
        for line in trace:
            print(json.dumps(line, sort_keys=True), file=sys.stderr)
    domination = transform.verify_domination(game, poa.worst_nash, tsg, strict=False)
    _emit({
        "transformed": tsg.to_dict(),
        "domination": domination.to_dict(),
    })
    return 0 if domination.all_ok else 1


def cmd_expansion(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    poa = equilibria.price_of_anarchy(game, cap=args.cap)
    if args.transform_first:
        tsg = transform.transform_to_singletons(game, poa.worst_nash, poa.optimal)
        graph = expansion.build_resource_graph(tsg)
    else:
        graph = expansion.build_resource_graph_from_game(
            game, poa.worst_nash, poa.optimal
        )
    report = expansion.expansion_report(graph)
    _emit(report)
    ok = report["all_hold"] and (
        "max_congestion_root" not in report or report["max_congestion_root"]["holds"]
    )
    return 0 if ok else 1


def cmd_lower_bound(args: argparse.Namespace) -> int:
    instance = lower_bound.generate(args.n, args.degree)
    if args.out:
        save_game(instance.game, args.out)
    report = lower_bound.verify(instance, cap=args.cap)
    payload = report.to_dict()
    if args.out:
        payload["game_file"] = args.out
    _emit(payload)
    return 0 if report.exact_match else 1


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--n-range must look like LO..HI, got {text!r}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n_range)
    print("n\tnum_resources\tpoa\tresource_exponent_value\tupper_bound_general")
    ok = True
    for n in range(lo, hi + 1):
        instance = lower_bound.generate(n, args.degree)
        report = lower_bound.verify(instance, cap=args.cap)
        ok = ok and report.exact_match
        bound = expansion.upper_bound_general(instance.num_resources, args.degree)
        poa = report.poa.numerator / report.poa.denominator
        print(
            f"{n}\t{instance.num_resources}\t{poa:g}\t"
            f"{report.resource_exponent_value:.3f}\t{bound:.3f}"
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybottleneck",
        description="Polynomial bottleneck congestion games: equilibria, "
        "price of anarchy, game transformation, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="equilibria and price of anarchy of a game file")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--cap", type=int, default=None, help="state-count cap")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("suite", help="randomized verification suite")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-players", type=int, default=4)
    p.add_argument("--max-resources", type=int, default=6)
    p.add_argument("--max-strategies", type=int, default=3)
    p.add_argument("--degrees", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("transform", help="rewrite a game so over-congested "
                       "resources host only singleton players")
    p.add_argument("game")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--trace", action="store_true",
                   help="emit one JSON line per operation on stderr")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("expansion", help="resource-graph expansion ledger and bounds")
    p.add_argument("game")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--transform-first", action="store_true",
                   help="transform the game before building the graph")
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("lower-bound", help="generate and verify a tight-family instance")
    p.add_argument("--n", type=int, required=True, help="number of players")
    p.add_argument("--degree", type=int, required=True, help="delay polynomial degree")
    p.add_argument("--out", default=None, help="write the game file here")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("sweep", help="lower-bound family sweep as a TSV table")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--n-range", required=True, help="inclusive range, e.g. 2..6")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (GameFormatError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StateSpaceTooLargeError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PolyBottleneckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
