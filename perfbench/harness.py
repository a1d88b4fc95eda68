"""Shared measurement machinery: metric catalogue, calibration, timed loops.

Nothing here imports ``repro``: the workloads (:mod:`workloads`) call
into the system, this module only times and summarizes what they do.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
}

#: Per-layer metrics, reported by every workload with ``--trace 1``.  A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = {
    "ingest_us_per_cert": "us",
    "decode_us_per_cert": "us",
    "lint_us_per_cert": "us",
    "sink_us_per_cert": "us",
    "pool_idle_us_per_cert": "us",
    "fold_us_per_entry": "us",
    "poll_overhead_us_per_entry": "us",
    "checkpoint_kib": "KiB",
    "peak_rss_mib": "MiB",
}

#: Stop a child process that has not finished after this many seconds.
CHILD_TIMEOUT_S = 60.0

#: Fresh-process start-ups timed per run; their median is ``setup_s``.
COLD_STARTS = 5

#: Time of :func:`calibration_kernel` on the reference host (a 2-CPU
#: virtual machine at 2 GHz).  End-to-end times are scaled to it.
REFERENCE_KERNEL_S = 0.020


_CALIBRATION_KEYS = [str(i) * 3 for i in range(50_000)]


def calibration_kernel() -> int:
    """Fixed pure-Python work whose time tracks host speed.

    Dict updates, small-object allocation and a sort over a 50k-string
    table: a working set of a few MB, like the workloads' own, and about
    20 ms long.  Shorter kernels (1 ms) were bimodal from sample to
    sample and reacted to the host's slow spells unlike the workloads.
    """
    rng = random.Random(1)
    counts: dict[str, int] = {}
    pairs = []
    for _ in range(10_000):
        key = _CALIBRATION_KEYS[rng.randrange(len(_CALIBRATION_KEYS))]
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, key.encode()))
    pairs.sort()
    return len(counts)


def calibration_seconds() -> float:
    """Wall time of :func:`calibration_kernel`, run twice, the second time.

    The first run refills the caches the preceding operation evicted:
    timed right after an operation, a single run took 16-28 ms by how
    much of its table that operation had displaced, not by host speed.
    """
    calibration_kernel()
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def _scaled(seconds: list[float], kernel: list[float]) -> list[float]:
    """Each of ``seconds`` at the reference host's speed.

    ``kernel`` holds one calibration sample before each time and one
    after the last; a time is divided by the mean of the two samples
    around it over :data:`REFERENCE_KERNEL_S`.
    """
    return [
        s * 2 * REFERENCE_KERNEL_S / (before + after)
        for s, before, after in zip(seconds, kernel, kernel[1:])
    ]


@dataclass
class Context:
    """What a workload is given: its seed, run length and a scratch dir."""

    seed: int
    seconds: float
    trace: bool
    root: Path  # checkout root; the sources live in root / "src"
    workdir: Path  # private scratch directory, removed after the run

    def child_env(self) -> dict[str, str]:
        """Environment for ``python -m repro`` children of this run."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.workdir)
        return env

    def cold_start(self, argv: list[str], ok_codes=(0,)) -> float:
        """Seconds for a fresh ``python -m repro <argv>`` process to finish.

        Raises ``RuntimeError`` when it exits with a code outside
        ``ok_codes``: a set-up sample of a failing command means nothing.
        """
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=self.workdir,
            env=self.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode not in ok_codes:
            raise RuntimeError(
                f"repro {' '.join(argv)} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace')[-500:]}"
            )
        return elapsed


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: One ``(seconds, items)`` record per completed op.
    ops: list[tuple[float, int]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)  # seconds per set-up
    #: Kernel seconds before each op and after the last.
    calibration: list[float] = field(default_factory=list)
    attempted: int = 0  # operations started
    failed: int = 0  # operations that raised or returned a wrong output
    problems: list[str] = field(default_factory=list)  # correctness failures
    layers: dict[str, float] = field(default_factory=dict)  # per-layer values

    def problem(self, message: str) -> None:
        """Record a correctness failure (also echoed to stderr)."""
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def items(self) -> int:
        return sum(items for _, items in self.ops)

    def calibrate(self) -> None:
        self.calibration.append(calibration_seconds())

    def cold_starts(self, ctx: Context, argv: list[str], ok_codes=(0,)) -> None:
        """Time ``COLD_STARTS`` fresh ``python -m repro <argv>`` processes."""
        for _ in range(COLD_STARTS):
            self.setup.append(ctx.cold_start(argv, ok_codes))

    def end_to_end(self) -> dict[str, float]:
        """Medians, each op's time scaled to the reference host's speed.

        Medians, not means: the host's slow spells stretch some operations
        severalfold and would dominate a mean.  Scaled: the host's speed
        drifts by up to half from one minute to the next and a running
        process slows alike in the kernel and in the op, so each op is
        divided by the speed the calibration kernel measured just around
        it.  Runs on a host slowed in spells by a memory-streaming
        neighbour spread 21% unscaled, 15% scaled by the run's median
        kernel time and 6% scaled op by op.  Set-up times are not scaled:
        a cold start's time did not follow the kernel's, and scaling
        doubled their spread across runs.
        """
        latencies = _scaled([s for s, _ in self.ops], self.calibration)
        rates = [items / s for s, (_, items) in zip(latencies, self.ops)]
        return {
            "items_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": statistics.median(self.setup),
        }


def run_for(seconds: float, op, outcome: Outcome, prepare=None) -> None:
    """Call ``op(i)`` back to back until ``seconds`` of wall time pass.

    ``op`` returns the number of items it processed; its wall time is one
    latency sample.  ``prepare(i)``, when given, runs untimed before each
    op (the benchmark's own bookkeeping, such as publishing log entries
    the op will consume).  The calibration kernel is timed after each
    ``prepare``, right before the op, and once after the last op.  An op
    that raises counts as failed and the loop goes on.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        if prepare is not None:
            prepare(i)
        outcome.calibrate()
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            items = op(i)
        except Exception:
            outcome.failed += 1
            traceback.print_exc(file=sys.stderr)
            items = 0
        outcome.ops.append((time.perf_counter() - start, items))
        i += 1
    outcome.calibrate()


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def per_item(total: float, items: float, scale: float = 1e6) -> float:
    """``total / items * scale``, or 0 when nothing was processed."""
    return total / items * scale if items else 0.0
