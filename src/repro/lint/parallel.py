"""Sharded, multiprocessing corpus lint pipeline.

The paper's headline tables are counting analyses over tens of millions
of certificates; linting them one at a time on one core does not scale.
This module adopts the shape used by bulk X.509 measurement tooling
(ParsEval's sharded evaluation, CT-ecosystem log processing): the corpus
is split into deterministic contiguous shards, each shard is linted in a
worker process, and the workers stream per-shard
:class:`~repro.lint.runner.CorpusSummary` objects back to the parent,
which folds them together with :meth:`CorpusSummary.merge` — an *exact*
aggregation, so ``--jobs N`` output is byte-identical to ``--jobs 1``.

Design points:

* **Deterministic sharding.**  :func:`shard_bounds` partitions ``n``
  records into contiguous near-equal ranges.  Shard membership depends
  only on ``(len(corpus), shards)``, never on worker scheduling.
* **DER across the process boundary.**  Workers receive certificates as
  DER bytes plus the issuance timestamp, not live objects: DER is the
  canonical wire form, cheap to pickle, and re-parsing it in the worker
  exercises exactly the tolerant parser the linter targets.  Builder
  certificates keep their original bytes (``Certificate.raw``), so the
  round trip is lossless.
* **Registry resolved once per shard.**  Each shard resolves the
  memoized ``REGISTRY.snapshot()`` and its :class:`RegistryIndex` once
  and reuses them for every certificate, so a lint registered after
  the pool started is still scheduled.
* **Crash containment.**  A shard that raises is caught *inside* the
  worker and reported as a structured failure; the parent raises
  :class:`ShardError` with the shard index and the worker traceback
  rather than hanging on a dead pool.

The orchestration itself — executor selection, fail-fast streaming,
exact merge, per-stage instrumentation — lives in :mod:`repro.engine`
(:meth:`repro.engine.pipeline.Engine.run`).  The worker-side primitives
(:func:`lint_shard`, :class:`LintPool`) stay here so pickled task
references keep a stable import path across fork and spawn.
"""

from __future__ import annotations

import datetime as _dt
import enum
import os
import time as _time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from ..asn1.errors import ASN1Error
from ..memo import ProcessMemo
from .framework import REGISTRY, Lint, RegistryIndex, index_for
from .runner import CertificateReport, CorpusSummary, run_lints, tally
from .serialization import render_text_report, report_to_json

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

#: Default over-decomposition factor: more shards than workers keeps the
#: pool busy when shard lint costs are skewed (certificates with many
#: applicable lints cluster by issuer, and issuers cluster in the
#: corpus).  4x is the classic work-stealing heuristic.
SHARDS_PER_JOB = 4

#: Floor on shard size: below this, per-shard IPC overhead (pickling the
#: task and the summary) dominates the lint work itself.
MIN_SHARD_SIZE = 64


class ShardError(RuntimeError):
    """A worker failed while linting one shard."""

    def __init__(self, index: int, message: str):
        super().__init__(
            f"shard {index} failed in the parallel lint pipeline: {message}"
        )
        self.index = index


#: What ``Certificate.from_der`` raises on bytes that are not a
#: certificate.  The shard loop records exactly this set as an
#: unparseable input; anything else is a bug and fails the shard.
DECODE_ERRORS = (ASN1Error,)


def unparseable_message(exc: Exception) -> str:
    """The recorded message of an input ``from_der`` rejected."""
    return f"input is not a parseable certificate: {exc}"


class ShardOutput(enum.Enum):
    """What a shard returns per certificate besides its summary: nothing,
    the report objects, or the ``repro lint`` body —
    ``report_to_json(report, cert)`` or ``render_text_report(report,
    cert)`` — rendered in the worker, where the certificate stays."""

    SUMMARY = "summary"
    REPORTS = "reports"
    JSON = "json"
    TEXT = "text"


@dataclass(frozen=True)
class ShardTask:
    """One unit of worker input: a contiguous slice of the corpus.

    Two transport shapes, same worker semantics:

    * **inline** — ``certs_der``/``issued_at`` carry the shard's records
      in the task itself (pickled through the executor pipe);
    * **substrate** — ``store_path`` names a
      :class:`repro.corpusstore.reader.CorpusStore` file and ``[start, stop)``
      the shard's record range; the task pickle is O(1) and the DER
      bytes flow to the worker through the page cache, never a pipe.

    ``store_path`` being non-``None`` selects the substrate shape;
    ``certs_der``/``issued_at`` are ignored in that case.
    """

    index: int
    certs_der: tuple[bytes, ...] = ()
    issued_at: tuple[_dt.datetime | None, ...] = ()
    respect_effective_dates: bool = True
    output: ShardOutput = ShardOutput.SUMMARY
    #: Substrate transport: path to a corpus-store file plus the shard's
    #: half-open record range within it.
    store_path: str | None = None
    start: int = 0
    stop: int = 0
    #: Extract :class:`repro.engine.windows.CertFacts` per certificate
    #: (the incremental engine's windowed fold needs them; the batch
    #: path never pays for the extraction).
    collect_facts: bool = False


@dataclass
class ShardResult:
    """One unit of worker output: the shard's exact summary.

    ``reports`` holds one entry per parsed certificate, in shard order,
    of the kind the task's ``output`` selects (``None`` for ``SUMMARY``).
    A record ``from_der`` rejects is left out of the summary, ``reports``
    and ``facts`` and listed in ``failures`` as ``(offset, message)``.
    ``timings`` carries the worker-side per-stage accounting
    (:class:`repro.engine.stats.StageTimings`) back across the process
    boundary so the parent engine can fold decode/lint/sink seconds
    into its run-level :class:`~repro.engine.stats.EngineStats`.
    """

    index: int
    count: int
    summary: CorpusSummary = field(default_factory=CorpusSummary)
    reports: list | None = None
    error: str | None = None
    timings: object | None = None
    #: Per-certificate ``(offset, ReportTally, CertFacts)`` triples (its
    #: shard offset, its report's :func:`~repro.lint.runner.tally` and
    #: :class:`repro.engine.windows.CertFacts`), in shard order, when the
    #: task asked for ``collect_facts``; an unparseable record has none.
    facts: list | None = None
    failures: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class ParallelLintOutcome:
    """What the pipeline hands back to callers.

    ``reports`` holds one output per parsed certificate, in batch order,
    of the kind the run's :class:`ShardOutput` selects (``None`` for
    ``SUMMARY``).  ``failures`` lists each unparseable record as
    ``(index, message)``, ``index`` being its log index
    (:func:`repro.engine.pipeline.run_corpus` raises on one instead).
    """

    summary: CorpusSummary
    reports: list[CertificateReport] | None
    jobs: int
    shards: int
    failures: list[tuple[int, str]] = field(default_factory=list)


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; in cgroup/affinity-limited
    environments (CI containers, ``taskset``) the scheduler mask is
    smaller, and sizing a pool past it just adds contention.  Prefer
    the affinity mask where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None, total: int | None = None) -> int:
    """Normalize a ``--jobs`` value; ``None``/0 means all usable CPUs
    (the scheduler-affinity mask, not the raw machine count).

    When ``total`` (the record count) is given and positive, the result
    is clamped so no more workers than records are provisioned — a
    3-record corpus at ``--jobs 8`` forks 3 processes, not 8 (5 of
    which could only ever receive empty shards' worth of work).
    """
    if jobs is None or jobs <= 0:
        jobs = usable_cpus()
    if total is not None and total > 0:
        jobs = min(jobs, total)
    return jobs


def shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``total`` items into ``shards`` contiguous ``(start, stop)``
    ranges, each of size ``total // shards`` or one more.

    Deterministic in ``(total, shards)`` alone; empty ranges are never
    produced (fewer shards are returned when ``shards > total``, and an
    empty input yields no ranges regardless of the requested count —
    zero-record corpora must never manufacture empty shard tasks).
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if total == 0:
        return []
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    shards = min(shards, total)
    base, extra = divmod(total, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def default_shard_count(total: int, jobs: int) -> int:
    """Shard-count heuristic: ``jobs * SHARDS_PER_JOB``, clamped so no
    shard falls below :data:`MIN_SHARD_SIZE` records (and never more
    shards than records)."""
    if total == 0:
        return 0
    by_parallelism = jobs * SHARDS_PER_JOB
    by_size = max(1, total // MIN_SHARD_SIZE)
    return max(1, min(by_parallelism, by_size, total))


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_schedule() -> tuple[tuple[Lint, ...], RegistryIndex]:
    """The current registry snapshot and its index (with its compiled plan).

    The snapshot is rebuilt by each ``register`` and the index is
    memoized per snapshot, so this is a few lookups per call.  The index
    builds its plan eagerly, so pre-fork it lands in COW-shared pages,
    and under spawn the initializer pays for it once at worker start-up
    instead of inside the first shard.
    """
    lints = REGISTRY.snapshot()
    return lints, index_for(lints)


def _worker_init() -> None:
    """Executor initializer: build the lint schedule before work arrives.

    Under fork this is belt-and-braces — the parent already built the
    schedule and the child inherits it copy-on-write.
    Under spawn it is the whole point: the snapshot/index build happens
    once at pool start, not inside the first shard's measured time.
    """
    _worker_schedule()


def _warm_worker() -> int:
    """No-op task used by :meth:`LintPool.prewarm` to force worker
    start-up (process creation + initializer) to completion."""
    _worker_schedule()
    return os.getpid()


def _close_cached_store(cached) -> None:
    cached[1].close()


#: Entry cap of :data:`_WORKER_STORES`.
_WORKER_STORE_MAX = 16

#: Per-worker-process cache of opened substrate readers, keyed by path:
#: ``(stat signature, store)``; a flush closes every store it drops.
#: The stat signature detects a replaced file (same path, new contents);
#: if the path has been unlinked since opening — the engine's spill
#: files are, once their run ends — the already-open mapping stays valid
#: and is reused until the worker opens another store.
_WORKER_STORES = ProcessMemo(_WORKER_STORE_MAX, on_evict=_close_cached_store)


def _open_worker_store(path: str):
    from ..corpusstore.reader import CorpusStore

    try:
        st = os.stat(path)
        signature = (st.st_ino, st.st_size, st.st_mtime_ns)
    except OSError:
        cached = _WORKER_STORES.get(path)
        if cached is not None:
            return cached[1]
        raise
    cached = _WORKER_STORES.get(path)
    if cached is not None and cached[0] == signature:
        return cached[1]
    if cached is not None:
        cached[1].close()
    # A reused pool sees a fresh spill path per run.  The parent unlinks
    # a spill only after its run ends, so a cached path that no longer
    # stats belongs to a finished run: close it, or every run would
    # leave one mapping of a deleted file behind.
    for stale in [p for p in _WORKER_STORES if p != path and not os.path.exists(p)]:
        _WORKER_STORES.pop(stale)[1].close()
    store = CorpusStore(path)
    _WORKER_STORES[path] = (signature, store)
    return store


def _shard_records(task: ShardTask):
    """Yield the shard's ``(der, issued_at)`` pairs from either
    transport shape."""
    if task.store_path is not None:
        store = _open_worker_store(task.store_path)
        yield from store.iter_shard(task.start, task.stop)
    else:
        yield from zip(task.certs_der, task.issued_at)


#: The worker-side renderer of each rendered :class:`ShardOutput`.
_RENDERERS = {
    ShardOutput.JSON: report_to_json,
    ShardOutput.TEXT: render_text_report,
}

#: Records per stage pass of :func:`lint_shard`.  Small enough that a
#: block's decoded certificates stay few however long the shard is;
#: large enough that each stage runs long stretches of its own code.
SHARD_BLOCK = 64


def lint_shard(task: ShardTask) -> ShardResult:
    """Lint one shard; never raises — failures come back structured.

    The one worker loop of batch, tail and service runs, in a worker
    process (or inline for ``jobs=1``).  Certificates arrive as DER —
    inline in the task or via the memory-mapped substrate — and go
    through the loop in blocks of :data:`SHARD_BLOCK` records, one stage
    at a time over the whole block:

    1. **decode** fetches each record and re-parses it with the tolerant
       parser; a record ``from_der`` rejects is recorded in
       ``failures`` with its shard offset, and the block goes on;
    2. **lint** runs the current (memoized) registry schedule over each
       decoded certificate;
    3. **sink** folds each report into the per-shard
       :class:`CorpusSummary` (tallied once), appends its output, and
       with ``collect_facts`` pairs that tally with the certificate's
       shard offset and its facts, read off the lint's field pass, for
       the windowed fold — in record order.

    The stages do the same work as a record-at-a-time loop; running
    each one over a block most likely keeps its code and data in the
    caches between certificates.  Warm, in 256-record shards, that took
    13-15% less time per certificate than one record at a time at
    blocks of 16 to 256 records, 15% at 64 (DESIGN.md, "The worker loop
    is block-staged").  The block also bounds how many decoded
    certificates are alive at once.  Each stage's clocks are read once
    per block, so the ``decode``/``lint``/``sink`` timings are per-block
    sums, and ``decode`` holds the fetch of the records too (and the
    ``from_der`` of a record that did not parse).  A block's timings
    are booked once its sink ends, so a shard that fails keeps those of
    its finished blocks.  Timings are summed per shard and record both
    clocks: wall (``perf_counter``) for latency, CPU (``process_time``)
    for the compute the run actually burned — on an oversubscribed box
    the two diverge, and summing worker wall across processes would
    double- to quadruple-count the elapsed time.
    """
    from ..engine.stats import StageTimings
    from ..x509.certificate import Certificate

    count = (
        task.stop - task.start
        if task.store_path is not None
        else len(task.certs_der)
    )
    result = ShardResult(index=task.index, count=count)
    timings = StageTimings()
    result.timings = timings
    outputs: list | None = None if task.output is ShardOutput.SUMMARY else []
    render = _RENDERERS.get(task.output)
    facts: list | None = None
    if task.collect_facts:
        from ..engine.windows import cert_facts

        facts = []
    respect = task.respect_effective_dates
    failures = result.failures
    summary = result.summary
    wall, cpu = _time.perf_counter, _time.process_time
    # Per-stage (wall, cpu) sums, added to ``timings`` once per shard.
    # Each stage's end is the next one's start, and a block's decode
    # starts where the previous block's sink ended.
    decode_w = decode_c = lint_w = lint_c = sink_w = sink_c = 0.0
    certs = nbytes = 0
    try:
        lints, index = _worker_schedule()
        plan = index.compiled_plan()
        records = enumerate(_shard_records(task))
        start, cstart = wall(), cpu()
        while chunk := list(islice(records, SHARD_BLOCK)):
            block = []
            block_bytes = 0
            for offset, (der, issued_at) in chunk:
                try:
                    cert = Certificate.from_der(der)
                except DECODE_ERRORS as exc:
                    failures.append((offset, unparseable_message(exc)))
                    continue
                block.append((offset, cert, issued_at))
                block_bytes += len(der)
            decoded, cdecoded = wall(), cpu()
            # The field pass is kept: ``cert_facts`` reads it in the sink stage.
            scans = [plan.scan(cert) for _, cert, _ in block]
            reports = [
                run_lints(
                    cert,
                    issued_at=issued_at,
                    lints=lints,
                    respect_effective_dates=respect,
                    index=index,
                    scan=scan,
                )
                for (_, cert, issued_at), scan in zip(block, scans)
            ]
            linted, clinted = wall(), cpu()
            for (offset, cert, _), scan, report in zip(block, scans, reports):
                counts = tally(report)
                summary.add_tally(counts)
                if outputs is not None:
                    outputs.append(report if render is None else render(report, cert))
                if facts is not None:
                    facts.append((offset, counts, cert_facts(cert, plan, scan)))
            sunk, csunk = wall(), cpu()
            decode_w += decoded - start
            decode_c += cdecoded - cstart
            lint_w += linted - decoded
            lint_c += clinted - cdecoded
            sink_w += sunk - linted
            sink_c += csunk - clinted
            start, cstart = sunk, csunk
            certs += len(block)
            nbytes += block_bytes
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        return result
    finally:
        if certs:
            timings.add("decode", decode_w, decode_c, certs)
            timings.add("lint", lint_w, lint_c, certs)
            timings.add("sink", sink_w, sink_c, certs)
            timings.certs += certs
            timings.bytes += nbytes
    result.reports = outputs
    result.facts = facts
    return result


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class LintPool:
    """A reusable worker-pool handle over :class:`ProcessPoolExecutor`.

    A ``multiprocessing.Pool`` per call is fine for one-shot batch runs
    but wrong for a long-lived service: the fork/spawn cost would land
    on the first request of every batch.  A ``LintPool`` is created
    once, hands out futures, and is shared by the corpus engine and
    the service batcher (:meth:`submit_shard`) and the fuzz campaign
    (:meth:`submit_fuzz`).

    The pool is *warm*: under fork, the parent resolves the registry
    snapshot and builds the :class:`RegistryIndex` before the first
    worker is created, so every child inherits the prebuilt schedule
    copy-on-write and does zero registry work of its own; under spawn
    (no inheritance) an executor ``initializer`` rebuilds it at worker
    start-up instead of inside the first task.  :meth:`prewarm` forces
    all worker processes into existence eagerly so a latency-sensitive
    caller (the lint service) pays start-up cost at boot, not on the
    first request.
    """

    def __init__(self, jobs: int | None = None, *, start_method: str | None = None):
        self.jobs = resolve_jobs(jobs)
        self.start_method = start_method
        self._executor: ProcessPoolExecutor | None = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Imported here and in ``_mp_context``, not at module top,
            # so a process that only lints in-process (``repro lint``)
            # never loads concurrent.futures or multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            ctx = _mp_context(self.start_method)
            if ctx.get_start_method() == "fork":
                # Build the schedule in the parent *before* forking so
                # children inherit it already constructed (COW pages).
                _worker_schedule()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=ctx,
                initializer=_worker_init,
            )
        return self._executor

    def prewarm(self, timeout: float | None = 60.0) -> int:
        """Start every worker now and block until all are schedulable.

        Submits one warm task per worker slot and waits for distinct
        processes to answer.  Returns the number of distinct worker
        PIDs observed (== ``jobs`` unless the platform coalesced).
        """
        futures = [
            self.executor.submit(_warm_worker) for _ in range(self.jobs)
        ]
        pids = {f.result(timeout=timeout) for f in futures}
        return len(pids)

    def submit_shard(self, task: ShardTask) -> Future[ShardResult]:
        """Dispatch one corpus shard; the future resolves to its
        :class:`ShardResult` (structured errors, never raises)."""
        return self.executor.submit(lint_shard, task)

    def submit_fuzz(self, specs: tuple):
        """Dispatch one fuzz mutant batch; the future resolves to
        ``(observations, StageTimings)`` from
        :func:`repro.fuzz.oracle.evaluate_batch_timed` — the campaign
        driver folds results in submission order to stay deterministic
        across ``--jobs`` values."""
        from ..fuzz.oracle import evaluate_batch_timed

        return self.executor.submit(evaluate_batch_timed, specs)

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    def __enter__(self) -> "LintPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def build_store_shard_tasks(
    store_path,
    total: int,
    shards: int,
    respect_effective_dates: bool = True,
    output: ShardOutput = ShardOutput.SUMMARY,
    collect_facts: bool = False,
) -> list[ShardTask]:
    """Deterministic per-shard tasks over a substrate file.

    Each task is ``(path, start, stop)`` plus flags — O(1) to pickle
    regardless of shard size.  Shard boundaries are computed by the
    same :func:`shard_bounds` as the inline path, so summaries merge in
    the same order and stay byte-identical.
    """
    tasks: list[ShardTask] = []
    for index, (start, stop) in enumerate(shard_bounds(total, shards)):
        tasks.append(
            ShardTask(
                index=index,
                respect_effective_dates=respect_effective_dates,
                output=output,
                store_path=str(store_path),
                start=start,
                stop=stop,
                collect_facts=collect_facts,
            )
        )
    return tasks


def build_pair_shard_tasks(
    pairs,
    shards: int,
    respect_effective_dates: bool = True,
    output: ShardOutput = ShardOutput.SUMMARY,
    collect_facts: bool = False,
) -> list[ShardTask]:
    """Deterministic per-shard tasks over ``(der, issued_at)`` pairs.

    The inline transport of a serial run: the batch, normalized by
    :func:`repro.engine.ingest.batch_pairs`, travels in the tasks
    themselves.  Shard boundaries come from the same
    :func:`shard_bounds`, so summaries merge in the same order as every
    other dispatch path.
    """
    pairs = list(pairs)
    tasks: list[ShardTask] = []
    for index, (start, stop) in enumerate(shard_bounds(len(pairs), shards)):
        chunk = pairs[start:stop]
        tasks.append(
            ShardTask(
                index=index,
                certs_der=tuple(der for der, _ in chunk),
                issued_at=tuple(issued for _, issued in chunk),
                respect_effective_dates=respect_effective_dates,
                output=output,
                collect_facts=collect_facts,
            )
        )
    return tasks


def _mp_context(method: str | None = None):
    """Resolve a multiprocessing context.

    Default prefers fork (cheap on Linux, schedule inherited prebuilt);
    falls back to spawn where fork is unavailable.  ``method`` forces a
    specific start method — the fork-vs-spawn equivalence tests use it.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if method is None:
        method = "fork" if "fork" in methods else "spawn"
    elif method not in methods:
        raise ValueError(
            f"start method {method!r} unavailable (have {methods})"
        )
    return multiprocessing.get_context(method)
