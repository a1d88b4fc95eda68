"""The staged lint engine: ingest → decode → lint → sink, instrumented.

Every entry point in the repo — the CLI ``lint``/``corpus``/``monitor``
commands and the throughput benchmarks — is a thin composition over
this module, and the lint service dispatches to its shard worker
(:func:`repro.lint.parallel.lint_shard`), so scaling work (new
executors, new sinks, stage-level profiling) lands once instead of
four times:

* **ingest** — resolve input to certificate DER: unified PEM/DER/base64
  sniffing for single inputs (:mod:`repro.engine.ingest`), deterministic
  shard-task serialization for corpora;
* **decode** — ``Certificate.from_der`` with parse errors *recorded* on
  the item (taxonomy code + message), never silently swallowed;
* **lint** — :func:`~repro.lint.runner.run_lints` over a
  ``RegistryIndex`` via a pluggable executor
  (:mod:`repro.engine.executors`): inline serial (the reference
  semantics) or a process pool;
* **sink** — CLI JSON/text documents, exact ``CorpusSummary`` merge, or
  the service response body (:mod:`repro.engine.sinks`).

Each :class:`Engine` owns an injectable
:class:`~repro.engine.stats.EngineStats` collector; stage timings from
worker processes are folded back in exactly, so one collector describes
a run regardless of which executor carried it.
"""

from __future__ import annotations

import datetime as _dt
import os as _os
import tempfile as _tempfile
from dataclasses import dataclass

from ..lint.parallel import (
    DECODE_ERRORS,
    ParallelLintOutcome,
    ShardError,
    ShardOutput,
    build_pair_shard_tasks,
    build_store_shard_tasks,
    default_shard_count,
    resolve_jobs,
    shard_bounds,
    unparseable_message,
)
from ..lint.runner import CertificateReport, run_lints
from ..lint.serialization import report_to_json
from ..x509.certificate import Certificate
from .executors import PoolExecutor, SerialExecutor
from .ingest import IngestError, corpus_records, sniff_certificate_bytes
from .sinks import merge_shard_results, render_text_report
from .stats import EngineStats


@dataclass
class EngineItem:
    """One certificate's journey through the staged pipeline.

    Stage failures are recorded (``error_code`` from the shared ingest
    taxonomy, or ``unparseable_certificate`` from decode) instead of
    raised, so callers decide their own failure surface — exit status 2
    for the CLI.  The service's 400 carries the same code and message,
    recorded by :func:`repro.lint.parallel.lint_shard`.
    """

    origin: str
    data: bytes | None = None
    der: bytes | None = None
    cert: Certificate | None = None
    issued_at: _dt.datetime | None = None
    report: CertificateReport | None = None
    error_code: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether every stage so far succeeded."""
        return self.error_code is None


class Engine:
    """Composes the four stages around one stats collector.

    ``stats`` is injectable (the service shares a daemon-lifetime
    collector; the CLI and benchmarks create one per run); omitted, a
    private collector is created so instrumentation is always on — the
    timers are a handful of ``perf_counter`` calls per certificate,
    far below lint cost.
    """

    def __init__(self, stats: EngineStats | None = None):
        self.stats = stats if stats is not None else EngineStats()

    # -- single-certificate path (CLI lint) ---------------------------

    def ingest_bytes(self, data: bytes, origin: str = "<bytes>") -> EngineItem:
        """Ingest stage: sniff PEM/DER/base64 input down to DER."""
        item = EngineItem(origin=origin, data=data)
        with self.stats.time("ingest", items=1):
            try:
                item.der = sniff_certificate_bytes(data)
            except IngestError as exc:
                item.error_code = exc.code
                item.error = exc.message
        return item

    def decode_item(self, item: EngineItem) -> EngineItem:
        """Decode stage: parse DER, recording (never raising) failures."""
        if not item.ok:
            return item
        with self.stats.time("decode", items=1):
            try:
                item.cert = Certificate.from_der(item.der)
            except DECODE_ERRORS as exc:
                item.error_code = "unparseable_certificate"
                item.error = unparseable_message(exc)
        if item.ok:
            self.stats.count_certs(1, len(item.der))
        return item

    def warm_compiled_plan(self) -> None:
        """Compile stage: build the default dispatch plan, timed.

        A no-op when the plan is already built, so the ``compile`` row
        of ``--stats``/``/metrics`` reports the one-time classification
        cost and never recurs per certificate.
        """
        from ..lint.compiled import warm_default_plan

        warm_default_plan(self.stats)

    def lint_item(
        self, item: EngineItem, respect_effective_dates: bool = True
    ) -> EngineItem:
        """Lint stage: run the full registry over a decoded certificate."""
        if not item.ok:
            return item
        self.warm_compiled_plan()
        with self.stats.time("lint", items=1):
            item.report = run_lints(
                item.cert,
                issued_at=item.issued_at,
                respect_effective_dates=respect_effective_dates,
            )
        return item

    def lint_bytes(
        self,
        data: bytes,
        origin: str = "<bytes>",
        respect_effective_dates: bool = True,
    ) -> EngineItem:
        """Ingest → decode → lint one input; failures stay on the item."""
        item = self.ingest_bytes(data, origin)
        self.decode_item(item)
        return self.lint_item(item, respect_effective_dates)

    def render_json(self, item: EngineItem) -> str:
        """Sink stage: the CLI-identical JSON document for one item."""
        with self.stats.time("sink", items=1):
            return report_to_json(item.report, item.cert)

    def render_text(self, item: EngineItem) -> list[str]:
        """Sink stage: the CLI's human-readable report lines."""
        with self.stats.time("sink", items=1):
            return render_text_report(item.report, item.cert)

    # -- corpus path (CLI corpus, parallel API, benchmarks) -----------

    def _resolve_corpus_jobs(self, jobs, pool, total: int) -> int:
        """The job count every corpus-shaped run uses.

        An explicit ``jobs`` alongside ``pool`` reconciles by clamping
        to the pool's worker count; either way the count never exceeds
        the record total (a 3-record batch at ``--jobs 8`` provisions 3).
        """
        if pool is not None:
            requested = jobs if jobs is not None else pool.jobs
            return min(resolve_jobs(requested, total=total), pool.jobs)
        return resolve_jobs(jobs, total=total)

    def _select_executor(self, pool, jobs: int, shards: int, total: int):
        """Strategy selection: inline serial whenever one process
        suffices, else the pool."""
        if pool is None and (jobs == 1 or min(shards, total) <= 1):
            return SerialExecutor()
        return PoolExecutor(jobs, pool=pool)

    def _execute_tasks(self, tasks, executor) -> list:
        """Run shard tasks and fold worker timings into this engine.

        For a distributed executor the parent-side wall clock of the
        whole phase records as the ``execute`` stage; worker wall
        columns are dropped on merge (they overlap — summing them would
        overcount) and only their CPU/item columns fold in.
        """
        distributed = getattr(executor, "distributed", True)
        if distributed:
            with self.stats.time("execute", items=len(tasks)):
                results = executor.run(tasks)
        else:
            results = executor.run(tasks)
        for result in results:
            if result.timings is not None:
                self.stats.merge_timings(result.timings, worker=distributed)
        return results

    def _drive(
        self, total: int, build_tasks, *, jobs, shards, pool, executor, collect_reports
    ) -> tuple[ParallelLintOutcome, list]:
        """The stages every corpus-shaped run shares.

        Resolves jobs, shard count and executor, warms the compiled
        plan, builds the shard tasks under the timed ``ingest`` stage
        (``build_tasks(shards, distributed)``), executes them and merges
        the results under the timed ``sink`` stage.  Returns the merged
        outcome and the raw shard results.  An explicit ``executor``
        sets the job count the default shard count is sized for, so a
        one-worker pool is not cut into shards for every usable CPU.
        """
        if executor is not None:
            jobs = executor.jobs
        else:
            jobs = self._resolve_corpus_jobs(jobs, pool, total)
        if total == 0:
            return merge_shard_results([], jobs, collect_reports), []
        if shards is None:
            shards = default_shard_count(total, jobs)
        if executor is None:
            executor = self._select_executor(pool, jobs, shards, total)
        # Compile stage: build the dispatch plan in the parent before
        # any work is dispatched — serial runs use it directly, pool
        # runs inherit it copy-on-write under fork.  Timed so the
        # one-time classification cost shows as its own stage.
        self.warm_compiled_plan()
        with self.stats.time("ingest", items=total):
            tasks = build_tasks(shards, getattr(executor, "distributed", True))
        self.stats.record_shards(
            [stop - start for start, stop in shard_bounds(total, shards)],
            jobs=executor.jobs,
        )
        results = self._execute_tasks(tasks, executor)
        with self.stats.time("sink", items=len(results)):
            outcome = merge_shard_results(results, executor.jobs, collect_reports)
        return outcome, results

    def run_increment(
        self,
        batch,
        *,
        base_index: int = 0,
        jobs: int | None = None,
        shards: int | None = None,
        respect_effective_dates: bool = True,
        collect_reports: bool = False,
        pool=None,
        executor=None,
        window=None,
    ) -> ParallelLintOutcome:
        """Lint one bounded batch and fold it into a windowed aggregate.

        The pull-based core of the incremental engine: a CT-tail
        monitor (or any streaming caller) feeds batches as they arrive
        and the same staged pipeline — ingest → decode → lint → sink —
        processes each one with the exact merge algebra of the batch
        path.  ``batch`` may be corpus records, tail entries (anything
        with ``.der``/``.issued_at``), or raw ``(der, issued_at)``
        pairs; ``base_index`` is the log index of the batch's first
        entry, which keys the tumbling windows.

        Pass ``window`` (a :class:`repro.engine.windows.WindowedSummary`)
        to fold per-certificate report tallies and figure facts into it
        under the ``fold`` stage; after folding entries ``[0, M)`` in any
        batch decomposition the window's grand total is structurally
        identical to one :meth:`run_corpus` pass over the same records.
        Workers send back each report's tally, never the report itself,
        unless ``collect_reports`` asks for the reports.  An entry that
        does not parse is not folded: it is listed in the outcome's
        ``failures`` as ``(log index, message)`` and the batch goes on.

        Batches ship inline (never spilled to a substrate): they are
        bounded by the poll size, and durability of the arriving DER is
        the caller's segment store's job, not the dispatch path's.
        """
        pairs = increment_pairs(batch)

        def build_tasks(shards: int, _distributed: bool) -> list:
            return build_pair_shard_tasks(
                pairs,
                shards,
                respect_effective_dates=respect_effective_dates,
                output=ShardOutput.REPORTS if collect_reports else ShardOutput.SUMMARY,
                collect_facts=window is not None,
            )

        outcome, results = self._drive(
            len(pairs),
            build_tasks,
            jobs=jobs,
            shards=shards,
            pool=pool,
            executor=executor,
            collect_reports=collect_reports,
        )
        # Shards are contiguous and in index order: each one starts
        # where the one before it ends.
        placed = []
        shard_start = 0
        for result in sorted(results, key=lambda r: r.index):
            placed.append((shard_start, result))
            outcome.failures += [
                (base_index + shard_start + offset, message)
                for offset, message in result.failures
            ]
            shard_start += result.count
        if window is not None and placed:
            with self.stats.time("fold", items=len(pairs) - len(outcome.failures)):
                for shard_start, result in placed:
                    for offset, counts, facts in result.facts:
                        position = shard_start + offset
                        window.fold_tally(
                            base_index + position, pairs[position][1], counts, facts
                        )
        return outcome

    def run_corpus(
        self,
        corpus,
        jobs: int | None = None,
        *,
        shards: int | None = None,
        respect_effective_dates: bool = True,
        collect_reports: bool = False,
        pool=None,
        executor=None,
    ) -> ParallelLintOutcome:
        """Lint a whole corpus through the staged pipeline, exactly.

        Deterministic contiguous shards, ``jobs`` clamped so no worker
        outnumbers the records, the inline serial executor whenever one
        process suffices (``jobs=1`` or a single shard), and an exact
        ``CorpusSummary`` merge — every executor choice yields
        byte-identical output.  Pass ``executor`` to override strategy
        selection, or ``pool`` to reuse a long-lived worker pool; an
        explicit ``jobs`` alongside ``pool`` is reconciled by clamping
        to the pool's worker count (and always to the record count).

        ``corpus`` may be a :class:`repro.corpusstore.reader.CorpusStore`:
        shard tasks are then ``(path, start, stop)`` references into the
        memory-mapped substrate and workers never receive pickled DER.
        Plain corpora headed for a process pool are *spilled* to a
        temporary substrate first for the same zero-copy dispatch (one
        sequential write, unlinked after the run); serial runs keep the
        inline task shape.
        """
        from ..corpusstore.reader import CorpusStore
        from ..corpusstore.writer import write_spill

        store = corpus if isinstance(corpus, CorpusStore) else None
        records = None if store is not None else corpus_records(corpus)
        total = len(store) if store is not None else len(records)
        task_kwargs = dict(
            respect_effective_dates=respect_effective_dates,
            output=ShardOutput.REPORTS if collect_reports else ShardOutput.SUMMARY,
        )
        spills: list[str] = []

        def build_tasks(shards: int, distributed: bool) -> list:
            if store is not None:
                return build_store_shard_tasks(store.path, total, shards, **task_kwargs)
            if not distributed:
                return build_pair_shard_tasks(
                    increment_pairs(records), shards, **task_kwargs
                )
            # Zero-copy dispatch: one sequential substrate write here
            # beats pickling every shard's DER into the executor pipe —
            # tasks become O(1) references and the bytes reach workers
            # via the page cache.  The file is unlinked when the run
            # ends, so it is written without an fsync.
            fd, path = _tempfile.mkstemp(prefix="repro-corpus-", suffix=".rcs")
            _os.close(fd)
            spills.append(path)
            write_spill(records, path)
            return build_store_shard_tasks(path, total, shards, **task_kwargs)

        try:
            outcome, results = self._drive(
                total,
                build_tasks,
                jobs=jobs,
                shards=shards,
                pool=pool,
                executor=executor,
                collect_reports=collect_reports,
            )
        finally:
            for path in spills:
                try:
                    _os.unlink(path)
                except OSError:
                    pass
        # A corpus outcome counts every record: one that does not parse
        # fails the run.
        for result in sorted(results, key=lambda r: r.index):
            if result.failures:
                raise ShardError(result.index, "record %d: %s" % result.failures[0])
        return outcome


def increment_pairs(batch) -> list[tuple[bytes, _dt.datetime | None]]:
    """Normalize any batch shape to ``(der, issued_at)`` pairs.

    Accepts the shapes streaming callers hand the incremental engine:
    corpus records (``.certificate``/``.issued_at``), CT tail entries
    (``.der``/``.issued_at``), raw ``(der, issued_at)`` pairs, or
    anything with ``.records`` wrapping one of those.
    """
    pairs: list[tuple[bytes, _dt.datetime | None]] = []
    for entry in getattr(batch, "records", batch):
        certificate = getattr(entry, "certificate", None)
        if certificate is not None:
            pairs.append(
                (certificate.to_der(), getattr(entry, "issued_at", None))
            )
            continue
        der = getattr(entry, "der", None)
        if der is not None:
            pairs.append((bytes(der), getattr(entry, "issued_at", None)))
            continue
        der, issued_at = entry
        pairs.append((bytes(der), issued_at))
    return pairs


def run_corpus(corpus, jobs: int | None = None, **kwargs) -> ParallelLintOutcome:
    """Module-level convenience: one-shot corpus run on a fresh engine.

    Pass ``stats=`` to observe the run's per-stage breakdown; remaining
    keyword arguments go to :meth:`Engine.run_corpus`.
    """
    stats = kwargs.pop("stats", None)
    return Engine(stats).run_corpus(corpus, jobs, **kwargs)


def run_increment(batch, **kwargs) -> ParallelLintOutcome:
    """Module-level convenience: lint one batch on a fresh engine.

    Pass ``stats=`` to observe the per-stage breakdown and ``window=``
    to fold into a :class:`~repro.engine.windows.WindowedSummary`;
    remaining keyword arguments go to :meth:`Engine.run_increment`.
    """
    stats = kwargs.pop("stats", None)
    return Engine(stats).run_increment(batch, **kwargs)
