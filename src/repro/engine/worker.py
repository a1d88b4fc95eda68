"""Worker-side engine primitives (picklable, process-boundary safe).

The engine's process-pool executor and the service batcher run the
decode → lint → sink stages inside worker processes, where the parent's
:class:`~repro.engine.stats.EngineStats` collector cannot be shared.
These functions therefore accumulate into a picklable
:class:`~repro.engine.stats.StageTimings` record shipped back with the
payload; the parent folds it in with ``EngineStats.merge_timings``.

``lint_ders_timed`` is the service's only dispatch target: its
``bodies`` are byte-identical to ``python -m repro lint --json`` — it
runs the same schedule through the same renderer, only with stage
timers around each hop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .stats import StageTimings


@dataclass
class TimedBatch:
    """One worker batch result: rendered bodies plus stage accounting."""

    bodies: list[str] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)


def lint_ders_timed(
    ders: tuple[bytes, ...], respect_effective_dates: bool = True
) -> TimedBatch:
    """Decode, lint, and render a DER batch with per-stage timers.

    Each body is exactly what ``python -m repro lint --json`` writes for
    the same certificate (``report_to_json(report, cert)``), which is
    what makes the online and offline paths byte-comparable.
    Unparseable DER raises, so a batch is all-or-nothing: callers
    validate admission-side.
    """
    from ..lint.parallel import _worker_schedule
    from ..lint.runner import run_lints
    from ..lint.serialization import report_to_json
    from ..x509 import Certificate

    lints, index = _worker_schedule()
    batch = TimedBatch()
    timings = batch.timings
    for der in ders:
        start = time.perf_counter()
        cstart = time.process_time()
        cert = Certificate.from_der(der)
        decoded = time.perf_counter()
        cdecoded = time.process_time()
        report = run_lints(
            cert,
            lints=lints,
            respect_effective_dates=respect_effective_dates,
            index=index,
        )
        linted = time.perf_counter()
        clinted = time.process_time()
        batch.bodies.append(report_to_json(report, cert))
        rendered = time.perf_counter()
        crendered = time.process_time()
        timings.add("decode", decoded - start, cdecoded - cstart, 1)
        timings.add("lint", linted - decoded, clinted - cdecoded, 1)
        timings.add("sink", rendered - linted, crendered - clinted, 1)
        timings.certs += 1
        timings.bytes += len(der)
    return batch
