"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.installed()`` replaces module attributes with wrappers that record a
span (name, start, end, parent span, job id) around each call and count the
work the call did; leaving the block puts the originals back, so untraced
phases run the unmodified package.  Spans stay in memory until ``write``.

A layer's self time is its span duration minus the time covered by the spans
of wrapped calls made inside it.  Calls are strictly nested (one thread), so
that covered time is the sum of the child span durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# Transform operations as ``TwoStrategyGame.record`` names them in the public
# ``trace=`` list; each gets a ``transform.ops.<op>`` count.
TRANSFORM_OPS = ("init", "clean_split", "prune", "split", "eliminate", "phase", "mark", "no_op")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[tuple] = []
        self.total_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self.active = False  # spans are kept only while a job runs
        self._stack: list[list] = []  # open spans: [span index, child ms]

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, after=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                kwargs = before(kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_ms = self._stack.pop()
                ms = (end - start) * 1e3
                self.spans[index] = (name, start, end, parent, self.job)
                self.total_ms[name] += ms
                self.self_ms[name] += ms - child_ms
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += ms
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += self.active
            return fn(*args, **kwargs)

        return wrapper

    def _patches(self):
        pkg = self.pkg
        counts = self.counts

        def encoded(args, kwargs, enc):
            counts["object_path_games"] += not enc.int64_safe

        def scanned(args, kwargs, values):
            counts["chunks"] += 1
            counts["states"] += len(values)

        def masked(args, kwargs, mask):
            counts["nash_states"] += int(mask.sum())

        def moved(args, kwargs, report):
            counts["brd_moves"] += report.moves

        def with_trace(kwargs):
            # Count transform operations from the public trace list.
            if kwargs.get("trace") is None:
                kwargs = {**kwargs, "trace": []}
            return kwargs

        def transformed(args, kwargs, tsg):
            for line in kwargs["trace"]:
                counts["op." + line["op"]] += 1

        def reported(args, kwargs, report):
            counts["high_nodes"] += report["num_high_nodes"]

        load_game = self._span("game_core.load_game", pkg.game_core.load_game)
        return [
            (pkg.cli, "main", self._span("cli.main", pkg.cli.main)),
            (pkg.cli, "load_game", load_game),
            (pkg.game_core, "load_game", load_game),
            (pkg.equilibria, "price_of_anarchy",
             self._span("equilibria.price_of_anarchy", pkg.equilibria.price_of_anarchy)),
            (pkg.kernels, "encode_game",
             self._span("kernels.encode_game", pkg.kernels.encode_game, encoded)),
            (pkg.kernels, "bottlenecks_range",
             self._span("kernels.bottlenecks_range", pkg.kernels.bottlenecks_range, scanned)),
            (pkg.kernels, "nash_mask_range",
             self._span("kernels.nash_mask_range", pkg.kernels.nash_mask_range, masked)),
            (pkg.equilibria, "best_response_dynamics",
             self._span("equilibria.best_response_dynamics",
                        pkg.equilibria.best_response_dynamics, moved)),
            (pkg.equilibria, "is_nash", self._span("equilibria.is_nash", pkg.equilibria.is_nash)),
            (pkg.transform, "transform_to_singletons",
             self._span("transform.transform_to_singletons",
                        pkg.transform.transform_to_singletons, transformed, with_trace)),
            (pkg.transform, "clean_game",
             self._span("transform.clean_game", pkg.transform.clean_game)),
            (pkg.transform, "run_phase", self._span("transform.run_phase", pkg.transform.run_phase)),
            (pkg.transform, "split_player",
             self._counter("split_player", pkg.transform.split_player)),
            (pkg.transform.TwoStrategyGame, "deviation",
             self._counter("deviation", pkg.transform.TwoStrategyGame.deviation)),
            (pkg.transform, "verify_domination",
             self._span("transform.verify_domination", pkg.transform.verify_domination)),
            (pkg.expansion, "build_resource_graph",
             self._span("expansion.build_resource_graph", pkg.expansion.build_resource_graph)),
            (pkg.expansion, "expansion_report",
             self._span("expansion.expansion_report", pkg.expansion.expansion_report, reported)),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, jobs: int, probe_ms: float, overhead_frac: float) -> dict:
        """Per-layer metrics of the traced phase, per job where a total is
        summed over jobs."""
        t, s, calls, counts = self.total_ms, self.self_ms, self.calls, self.counts
        per_job = lambda x: x / jobs
        ratio = lambda a, b: a / b if b else 0.0
        scan_ms = t["kernels.bottlenecks_range"] + t["kernels.nash_mask_range"]
        values = {
            "game_core.load_game.ms": (per_job(t["game_core.load_game"]), "ms/job"),
            "game_core.load_game.calls": (per_job(calls["game_core.load_game"]), "count/job"),
            "kernels.encode_game.ms": (per_job(t["kernels.encode_game"]), "ms/job"),
            "kernels.encode_game.calls": (per_job(calls["kernels.encode_game"]), "count/job"),
            "kernels.bottlenecks_range.ms": (per_job(t["kernels.bottlenecks_range"]), "ms/job"),
            "kernels.nash_mask_range.ms": (per_job(t["kernels.nash_mask_range"]), "ms/job"),
            "kernels.chunks": (per_job(counts["chunks"]), "count/job"),
            "kernels.states": (per_job(counts["states"]), "count/job"),
            "kernels.scan_ns_per_state": (ratio(scan_ms * 1e6, counts["states"]), "ns/state"),
            "kernels.object_path_games": (per_job(counts["object_path_games"]), "count/job"),
            "equilibria.price_of_anarchy.self_ms":
                (per_job(s["equilibria.price_of_anarchy"]), "ms/job"),
            "equilibria.nash_per_state": (ratio(counts["nash_states"], counts["states"]), "frac"),
            "equilibria.best_response_dynamics.ms":
                (per_job(t["equilibria.best_response_dynamics"]), "ms/job"),
            "equilibria.best_response_dynamics.moves": (per_job(counts["brd_moves"]), "count/job"),
            "equilibria.best_response_dynamics.ms_per_move":
                (ratio(t["equilibria.best_response_dynamics"], counts["brd_moves"]), "ms/move"),
            "equilibria.is_nash.ms": (per_job(t["equilibria.is_nash"]), "ms/job"),
            "equilibria.is_nash.calls": (per_job(calls["equilibria.is_nash"]), "count/job"),
            "transform.transform_to_singletons.ms":
                (per_job(t["transform.transform_to_singletons"]), "ms/job"),
            "transform.clean_game.ms": (per_job(t["transform.clean_game"]), "ms/job"),
            "transform.deviation.calls": (per_job(counts["deviation"]), "count/job"),
            "transform.run_phase.ms": (per_job(t["transform.run_phase"]), "ms/job"),
            "transform.split_player.calls": (per_job(counts["split_player"]), "count/job"),
            **{f"transform.ops.{op}": (per_job(counts["op." + op]), "count/job")
               for op in TRANSFORM_OPS},
            "transform.verify_domination.ms": (per_job(t["transform.verify_domination"]), "ms/job"),
            "expansion.build_resource_graph.ms":
                (per_job(t["expansion.build_resource_graph"]), "ms/job"),
            "expansion.expansion_report.ms": (per_job(t["expansion.expansion_report"]), "ms/job"),
            "expansion.high_nodes": (per_job(counts["high_nodes"]), "count/job"),
            "cli.self_ms": (per_job(s["cli.main"]), "ms/job"),
            "host.probe_ms": (probe_ms, "ms"),
            "trace.overhead_frac": (overhead_frac, "frac"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    def write(self, path) -> None:
        names = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")
