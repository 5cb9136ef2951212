"""The four benchmark workloads.

Each workload is a stream of *passes*, each pass a short fixed mix of jobs.
Inputs come from ``--seed`` and the job's index only, and are made between
jobs, outside the job timers.  ``batch`` is the fixed reference batch whose
summed job time is reported as ``wall_s``.

Why the workloads look as they do.  An earlier benchmark of this package
was rejected as too noisy: two runs of the same code differed by 8 % in
wall time and by 13 % in tail latency.  Its causes, which no workload here
may repeat:

* Runs under 5 s.  Every run measures for ``--seconds`` (30 s in BENCHMARK.json)
  and reports medians over hundreds to thousands of jobs.
* Mixed job sizes with the p50 or the tail on a class border.  Within a
  workload the jobs are of one size, or of a fixed mix chosen so that the p50
  and the tail each fall well inside one job class; the result names the
  class each of them fell on.
* Tails taken from too few samples.  The tail is the highest of p50, p90, p95
  and p99 with at least 10 jobs beyond it, and the result states which one
  it was and how many jobs it rests on.
* Raw wall time on a host whose speed drifts.  A fixed reference job (the
  probe) runs between every two jobs; ``wall_rel`` and ``job_p50_rel`` divide
  by its median from the same run, and are the numbers to compare.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import checks


@dataclass
class Job:
    kind: str                                # job class
    call: Callable[[], Any]                  # the timed work
    parse: Callable[[Any], dict]             # raw output -> checkable result
    verify: Callable[[dict], list[str]]      # failure messages; [] when correct


def cli_call(pkg, argv: list[str]) -> tuple[int, str]:
    """An in-process CLI command with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def parse_cli(raw: tuple[int, str]) -> dict:
    rc, stdout = raw
    return {"rc": rc, "out": json.loads(stdout) if rc == 0 else None}


def as_lists(game) -> list[list[list[int]]]:
    return [[list(s) for s in strat_set] for strat_set in game.strategies]


def write_game(path: Path, num_resources: int, degree: int, players) -> None:
    doc = {"degree": degree, "num_resources": num_resources, "players": players}
    path.write_text(json.dumps(doc))


class Workload:
    name = ""
    batch: dict[str, int] = {}
    min_passes = 1

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> list[Job]:
        """Make what every job needs; return the warm-up jobs."""
        raise NotImplementedError

    def passes(self) -> Iterator[list[Job]]:
        raise NotImplementedError


class TightScan(Workload):
    """``analyze`` on relabelled copies of the degree-1 tight instance at
    n=12: 4,096 states over 144 resources per job, every job the same size.
    The scan kernels and the Nash mask do almost all the work.  Relabelling
    (resource ids and player order permuted per job) keeps a per-game cache
    from turning repeats into free hits."""

    name = "tight_scan"
    n = 12
    batch = {"tight12": 100}

    def setup(self) -> list[Job]:
        base = self.workdir / "tight-base.json"
        rc, stdout = cli_call(self.pkg, ["lower-bound", "--n", str(self.n), "--degree", "1",
                                         "--out", str(base)])
        if rc != 0 or json.loads(stdout)["exact_match"] is not True:
            raise RuntimeError(f"lower-bound --n {self.n} failed: exit {rc}, {stdout!r}")
        doc = json.loads(base.read_text())
        self.base = doc["players"]
        self.num_resources = doc["num_resources"]
        self.nash_count = None
        return [self.job(0)]

    def job(self, index: int) -> Job:
        rng = self.rng(index)
        relabel = rng.permutation(self.num_resources)
        order = rng.permutation(len(self.base))
        players = [[sorted(int(relabel[r]) for r in s) for s in self.base[i]] for i in order]
        path = self.workdir / "tight.json"
        write_game(path, self.num_resources, 1, players)
        return Job("tight12", lambda: cli_call(self.pkg, ["analyze", str(path)]),
                   parse_cli, lambda result: self.verify(players, result))

    def verify(self, players, result: dict) -> list[str]:
        errors = checks.check_analyze(players, 1, result)
        if errors:
            return errors
        out = result["out"]
        if (out["C"], out["C_star"]) != (self.n, 1):
            errors.append(f"C, C* = {out['C']}, {out['C_star']}; the family needs {self.n}, 1")
        # Relabelling cannot change the number of Nash states.
        if self.nash_count is None:
            self.nash_count = out["nash_count"]
        elif out["nash_count"] != self.nash_count:
            errors.append(f"nash_count {out['nash_count']} differs from {self.nash_count}")
        return errors

    def passes(self):
        index = 1
        while True:
            yield [self.job(index)]
            index += 1


class RandomScan(Workload):
    """``analyze`` on random games with 13 players and 2 strategies each:
    8,192 states, exactly one kernel chunk.  16-24 resources, strategies of
    1-3 resources.  Three games of every pass of four have degree 1-3 and
    scan in int64; the fourth has degree 24, which the int64 guard sends down
    the exact object-dtype path.  The p50 thus measures the int64 path and
    the tail the object path."""

    name = "random_scan"
    batch = {"int64": 75, "object": 25}
    players = 13

    def setup(self) -> list[Job]:
        return self.pass_jobs(0)

    def game(self, rng: np.random.Generator, degree: int, path: Path):
        z = int(rng.integers(16, 25))
        players = [
            [sorted(int(r) for r in rng.choice(z, int(rng.integers(1, 4)), replace=False))
             for _ in range(2)]
            for _ in range(self.players)
        ]
        write_game(path, z, degree, players)
        return players

    def pass_jobs(self, index: int) -> list[Job]:
        rng = self.rng(index)
        jobs = []
        for k, degree in enumerate([int(d) for d in rng.integers(1, 4, size=3)] + [24]):
            path = self.workdir / f"random-{k}.json"
            players = self.game(rng, degree, path)
            jobs.append(Job(
                "int64" if degree < 24 else "object",
                lambda path=path: cli_call(self.pkg, ["analyze", str(path)]),
                parse_cli,
                lambda result, players=players, degree=degree:
                    checks.check_analyze(players, degree, result),
            ))
        return jobs

    def passes(self):
        index = 1
        while True:
            yield self.pass_jobs(index)
            index += 1


class SmallSuite(Workload):
    """``suite --count 1`` on thousands of tiny random games (2-4 players,
    2-3 strategies, at most 81 states).  Each job passes through every layer
    down to the JSON output, so per-call overhead dominates: ``encode_game``,
    scans of a single small chunk, and the CLI.  The benchmark re-derives
    each game from its seed and checks C, C* and the Nash count exhaustively."""

    name = "small_suite"
    batch = {"suite": 1000}
    options = {"max_players": 4, "max_resources": 6, "max_strategies": 3, "degrees": (1, 2, 3)}

    def setup(self) -> list[Job]:
        return [self.job(seed) for seed in self.suite_seeds(0, 5)]

    def suite_seeds(self, start: int, count: int) -> list[int]:
        return [self.seed * 1_000_000 + k for k in range(start, start + count)]

    def job(self, suite_seed: int) -> Job:
        o = self.options
        argv = ["suite", "--count", "1", "--seed", str(suite_seed),
                "--max-players", str(o["max_players"]),
                "--max-resources", str(o["max_resources"]),
                "--max-strategies", str(o["max_strategies"]),
                "--degrees", *(str(d) for d in o["degrees"])]
        return Job("suite", lambda: cli_call(self.pkg, argv), parse_cli,
                   lambda result: self.verify(suite_seed, result))

    def verify(self, suite_seed: int, result: dict) -> list[str]:
        # The suite draws its game first from a generator seeded with --seed.
        game = self.pkg.generators.random_game(np.random.default_rng(suite_seed), **self.options)
        return checks.check_suite(as_lists(game), game.degree, result)

    def passes(self):
        index = 5
        while True:
            yield [self.job(seed) for seed in self.suite_seeds(index, 10)]
            index += 10


class TransformChain(Workload):
    """``transform_to_singletons`` → ``verify_domination`` →
    ``build_resource_graph`` → ``expansion_report``, with no scan.

    * Seeded ``forced_congestion_game`` instances from their known equilibrium
      and optimal states: over 99 % of jobs, so they set the p50 and the tail.
      Degree-2 games are about four times larger than degree-1 games, so
      each pass holds three of degree 1 and one of degree 2: the p50 falls
      inside the degree-1 class and the tail inside the degree-2 class.
    * Once per phase, the degree-1 tight family at n = 40, 50, 60, 70, 80 from
      its known states; pruning in ``clean_game`` takes most of their time.
    * Once per phase, two random games with 200 players: best-response
      dynamics from a seeded start, then the chain from the equilibrium found,
      tracking the start state.

    One heavy job follows every ``spacing`` passes, so all seven have run after
    ``min_passes`` passes.
    """

    name = "transform_chain"
    tight_sizes = (40, 50, 60, 70, 80)
    brd_games = 2
    spacing = 10
    batch = {"forced1": 1500, "forced2": 500, **{f"tight{n}": 1 for n in tight_sizes},
             "brd200": brd_games}
    min_passes = spacing * (len(tight_sizes) + brd_games)

    def setup(self) -> list[Job]:
        lb = self.pkg.lower_bound
        self.tight = {n: lb.generate(n, 1) for n in self.tight_sizes}
        warm = lb.generate(16, 1)
        return self.forced_jobs(0) + [
            self.chain_job("warmup", warm.game, warm.state_all_direct, warm.state_all_paths),
            self.brd_job(0, players=40),
        ]

    def chain(self, game, eq, opt) -> tuple:
        pkg = self.pkg
        tsg = pkg.transform.transform_to_singletons(game, eq, opt)
        domination = pkg.transform.verify_domination(game, eq, tsg, strict=False)
        report = pkg.expansion.expansion_report(pkg.expansion.build_resource_graph(tsg))
        return tsg, domination, report

    def parse_chain(self, game, eq, raw) -> dict:
        tsg, domination, report = raw
        expected = checks.congestion(as_lists(game), eq)
        return {
            "all_ok": domination.all_ok,
            "all_hold": report["all_hold"],
            "root_holds": report.get("max_congestion_root", {"holds": True})["holds"],
            "eq_congestion": [int(c) for c in tsg.eq_congestion()],
            "expected_congestion": [expected.get(r, 0) for r in range(game.num_resources)],
            "eq_bottleneck": tsg.eq_bottleneck,
            "expected_bottleneck": max(expected.values()),
        }

    def chain_job(self, kind: str, game, eq, opt) -> Job:
        return Job(kind, lambda: self.chain(game, eq, opt),
                   lambda raw: self.parse_chain(game, eq, raw), checks.check_chain)

    def forced_jobs(self, index: int) -> list[Job]:
        rng = self.rng(index)
        jobs = []
        for degree in (1, 1, 1, 2):
            game, eq, opt = self.pkg.generators.forced_congestion_game(rng, degree)
            jobs.append(self.chain_job(f"forced{degree}", game, eq, opt))
        return jobs

    def brd_job(self, index: int, players: int = 200) -> Job:
        rng = self.rng(1_000_000 + index)
        z = int(rng.integers(40, 81))
        degree = int(rng.integers(1, 3))
        strategies = [
            [sorted(int(r) for r in rng.choice(z, int(rng.integers(1, 4)), replace=False))
             for _ in range(int(rng.integers(2, 4)))]
            for _ in range(players)
        ]
        game = self.pkg.Game.build(z, degree, strategies)
        start = tuple(int(rng.integers(0, len(s))) for s in strategies)

        def call():
            found = self.pkg.equilibria.best_response_dynamics(game, start)
            return found, self.chain(game, found.profile, start)

        def parse(raw):
            found, chain = raw
            result = self.parse_chain(game, found.profile, chain)
            result["brd_nash"] = checks.is_nash(strategies, degree, found.profile)
            return result

        def verify(result):
            errors = checks.check_chain(result)
            if not result["brd_nash"]:
                errors.append("best-response dynamics stopped at a non-Nash state")
            return errors

        return Job("brd200", call, parse, verify)

    def heavy_jobs(self) -> list[Job]:
        jobs = []
        for n in self.tight_sizes:
            inst = self.tight[n]
            jobs.append(self.chain_job(f"tight{n}", inst.game, inst.state_all_direct,
                                       inst.state_all_paths))
        return jobs + [self.brd_job(k + 1) for k in range(self.brd_games)]

    def passes(self):
        heavy = self.heavy_jobs()
        index = 1
        while True:
            jobs = self.forced_jobs(index)
            if index % self.spacing == 0 and heavy:
                jobs.append(heavy.pop(0))
            yield jobs
            index += 1


WORKLOADS = {w.name: w for w in (TightScan, RandomScan, TransformChain, SmallSuite)}
