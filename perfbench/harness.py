"""Timing loop, host-speed probe, statistics and environment record.

The loop is closed with one client: one job at a time, no threads, the next
job starting only after the previous one has returned and been checked.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Percentiles a tail may be reported at; the tail is the highest of them with
# at least TAIL_BEYOND jobs above it.
TAIL_LADDER = (50, 90, 95, 99)
TAIL_BEYOND = 10

_PROBE_LOOP = 10_000
_PROBE_TABLE = np.arange(1 << 19, dtype=np.int64)  # 4 MiB, beyond the L2 cache
_PROBE_INDEX = np.random.default_rng(0).integers(0, 1 << 19, size=(1024, 144))


def probe() -> float:
    """Run the fixed reference job and return its time in ms.

    It is benchmark-owned and never calls the package: a pure-Python integer
    loop, which slows down with the host as the transform and CLI code does,
    plus one numpy gather-and-reduce over a 4 MiB table, which slows down as
    the scan kernels do.  About 4 ms on a 2-CPU VM.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(_PROBE_LOOP):
        acc = (acc * 1_103_515_245 + i) % 2_147_483_648
    acc += int(_PROBE_TABLE[_PROBE_INDEX].max(axis=1).sum())
    return (time.perf_counter() - start) * 1e3


@dataclass
class Phase:
    """What one timed phase measured."""

    samples: list[tuple[str, float]] = field(default_factory=list)  # (job class, ms)
    starts: list[float] = field(default_factory=list)   # job start times, s
    probes: list[float] = field(default_factory=list)   # probes[k] runs just before job k
    probe_at: list[float] = field(default_factory=list)  # probe start times, s
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # first few failure messages


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run whole passes of the workload's jobs, a probe before each job,
    until ``seconds`` have passed and the workload's own minimum is met."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    for number, jobs in enumerate(workload.passes()):
        for job in jobs:
            phase.probe_at.append(time.perf_counter())
            phase.probes.append(probe())
            if tracer is not None:
                tracer.job, tracer.active = phase.attempted, True
            start = time.perf_counter()
            try:
                try:
                    raw = job.call()
                finally:
                    ms = (time.perf_counter() - start) * 1e3
                    if tracer is not None:
                        tracer.active = False
                problems = job.verify(job.parse(raw))
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                problems = [f"{type(exc).__name__}: {exc}"]
            phase.attempted += 1
            phase.samples.append((job.kind, ms))
            phase.starts.append(start)
            if problems:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"{job.kind}: {'; '.join(problems)}")
        if number + 1 >= workload.min_passes and time.perf_counter() >= deadline:
            phase.probe_at.append(time.perf_counter())
            phase.probes.append(probe())
            return phase
    return phase


def host_speed(phase: Phase, k: int) -> float:
    """Probe time around job k: the median of the probes that ran within one
    job duration before its start or after its end, and at least the two
    probes next to it.  Long jobs are thus compared with the host speed over
    a span as long as themselves."""
    span = phase.samples[k][1] / 1e3
    start, end = phase.starts[k] - span, phase.starts[k] + 2 * span
    lo, hi = k, k + 1
    while lo > 0 and phase.probe_at[lo - 1] >= start:
        lo -= 1
    while hi + 1 < len(phase.probe_at) and phase.probe_at[hi + 1] <= end:
        hi += 1
    return statistics.median(phase.probes[lo:hi + 1])


def tail(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, jobs beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND jobs beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)  # ceil(p/100 * n), nearest rank
        if best is None or n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1], n - rank)
    return best


def class_at(samples: list[tuple[str, float]], value: float) -> str:
    return next(kind for kind, ms in samples if ms == value)


def summarize(phase: Phase, batch: dict[str, int]) -> dict:
    """End-to-end numbers of one phase.

    ``wall_s`` is the summed job time of the workload's fixed reference batch,
    ``sum(count * mean job time)`` over its job classes.  A run lasts a fixed
    time, so the plain sum of its job times would not depend on speed.

    The ``_rel`` numbers divide each job's time by the probe time around it
    (``host_speed``) before taking the same sum and median, so host-speed
    drift within a run cancels job by job.
    """
    kinds = [kind for kind, _ in phase.samples]
    times = [ms for _, ms in phase.samples]
    rel = [ms / host_speed(phase, k) for k, ms in enumerate(times)]

    def per_class(values, stat) -> dict:
        return {c: stat([v for k, v in zip(kinds, values) if k == c]) for c in sorted(set(kinds))}

    mean_ms = per_class(times, statistics.fmean)
    mean_rel = per_class(rel, statistics.fmean)
    percentile, tail_ms, beyond = tail(times)
    return {
        "wall_s": sum(count * mean_ms[c] for c, count in batch.items()) / 1e3,
        "job_p50_ms": statistics.median(times),
        "job_tail_ms": tail_ms,
        "wall_rel": sum(count * mean_rel[c] for c, count in batch.items()),
        "job_p50_rel": statistics.median(rel),
        "job_tail_rel": tail(rel)[1],
        "probe_ms": statistics.median(phase.probes),
        "tail_percentile": percentile,
        "jobs": len(times),
        "jobs_beyond_tail": beyond,
        "p50_class": class_at(phase.samples, statistics.median_low(times)),
        "tail_class": class_at(phase.samples, tail_ms),
        "jobs_per_class": per_class(times, len),
        "p50_ms_per_class": per_class(times, statistics.median),
        "mean_rel_per_class": mean_rel,
        "error_rate": phase.failed / phase.attempted,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, kernels) -> dict:
    src = root / "src" / "polybottleneck"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "backend": kernels.default_backend(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "git_commit": git_commit(root),
        "argv": sys.argv[1:],
    }
