#!/usr/bin/env python3
"""Benchmark of the polybottleneck package, one workload per process.

    python3 perfbench/run.py --workload tight_scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``.  With
``--trace 0`` the run measures for ``--seconds`` with no tracing and reports
the end-to-end metrics.  With ``--trace 1`` it measures half the time untraced
and half traced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is the result object; the line before it
holds the details (environment, tail percentile, job classes, raw numbers).
Spans and the full result go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 3


def parse_args(names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(workload_cls, pkg, seed: int, workdir: Path):
    """Build the workload, make its inputs, run and check its warm-up jobs.
    Returns the workload, the warm-up results and the setup time in s."""
    start = time.perf_counter()
    workload = workload_cls(pkg, seed, workdir)
    results = []
    for job in workload.setup():
        result = job.parse(job.call())
        problems = job.verify(result)
        if problems:
            raise SystemExit(f"warm-up {job.kind} job failed: {'; '.join(problems)}")
        results.append((job, result))
    return workload, results, time.perf_counter() - start


def reject_corruptions(warmups, checks) -> int:
    """Every deliberately corrupted warm-up output must fail its check."""
    rejected = 0
    for job, result in warmups:
        for label, broken in checks.corruptions(result):
            if not job.verify(broken):
                raise SystemExit(f"the {job.kind} check accepted a corrupted output ({label})")
            rejected += 1
    return rejected


def main() -> int:
    if not (ROOT / "src" / "polybottleneck" / "__init__.py").is_file():
        print("error: run from the repository root; src/polybottleneck is missing",
              file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread: the benchmark is a single client on one core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy  # noqa: F401
    import polybottleneck
    import polybottleneck.cli
    import polybottleneck.generators
    import polybottleneck.kernels
    import polybottleneck.lower_bound

    import checks
    import harness
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    args = parse_args(sorted(WORKLOADS))
    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        setups = [set_up(WORKLOADS[args.workload], polybottleneck, args.seed, workdir)
                  for _ in range(SETUP_REPEATS)]
        workload, warmups, _ = setups[-1]
        rejected = reject_corruptions(warmups, checks)

        if args.trace:
            plain = harness.run_phase(workload, args.seconds / 2)
            tracer = tracing.Tracer(polybottleneck)
            with tracer.installed():
                traced = harness.run_phase(workload, args.seconds / 2, tracer)
            phases = [plain, traced]
            plain_sum = harness.summarize(plain, workload.batch)
            summary = harness.summarize(traced, workload.batch)
            overhead = summary["wall_rel"] / plain_sum["wall_rel"] - 1.0
            metrics = tracer.layer_metrics(len(traced.samples), summary["probe_ms"], overhead)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            phase = harness.run_phase(workload, args.seconds)
            phases = [phase]
            summary = harness.summarize(phase, workload.batch)
            setup_s = import_s + statistics.median(s for _, _, s in setups)
            # The raw times (wall_s, job_p50_ms, job_tail_ms) stay in the
            # detail line: on a host whose speed drifts they do not repeat.
            metrics = {name: {"value": summary[name], "unit": "probes"}
                       for name in ("wall_rel", "job_p50_rel", "job_tail_rel")}
            metrics["peak_rss_mb"] = {"value": harness.peak_rss_mb(), "unit": "MB"}
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "summary": summary,
        "import_s": import_s,
        "setup_runs_s": [s for _, _, s in setups],
        "corruptions_rejected": rejected,
        "errors": [e for p in phases for e in p.errors],
        "env": harness.environment(ROOT, polybottleneck.kernels),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
