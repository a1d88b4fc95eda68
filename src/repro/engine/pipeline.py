"""The staged lint engine: ingest → decode → lint → sink, instrumented.

Every lint run in the repo — the CLI ``lint``/``corpus``/``monitor``
commands, the analysis entry points and the throughput benchmarks — is
one call, :meth:`Engine.run`, and the lint service dispatches to the
same shard worker (:func:`repro.lint.parallel.lint_shard`), so scaling
work (new executors, new sinks, stage-level profiling) lands once:

* **ingest** — resolve the batch to shard tasks: any batch shape
  normalized to ``(der, issued_at)`` pairs
  (:func:`repro.engine.ingest.batch_pairs`; the CLI sniffs PEM/DER/base64
  input first), shipped inline, spilled to a substrate, or referenced
  in a corpus store;
* **decode** — ``Certificate.from_der`` in the shard loop, with parse
  errors *recorded* (log index + message), never silently swallowed;
* **lint** — :func:`~repro.lint.runner.run_lints` over a
  ``RegistryIndex`` via a pluggable executor
  (:mod:`repro.engine.executors`): inline serial (the reference
  semantics) or a process pool;
* **sink** — the exact ``CorpusSummary`` merge
  (:mod:`repro.engine.sinks`), per-certificate outputs (reports, or the
  CLI JSON/text bodies rendered in the worker) and the windowed fold.

Each :class:`Engine` owns an injectable
:class:`~repro.engine.stats.EngineStats` collector; stage timings from
worker processes are folded back in exactly, so one collector describes
a run regardless of which executor carried it.
"""

from __future__ import annotations

import bisect
import os as _os
import sys
import tempfile as _tempfile

from ..lint.parallel import (
    ParallelLintOutcome,
    ShardError,
    ShardOutput,
    build_pair_shard_tasks,
    build_store_shard_tasks,
    default_shard_count,
    resolve_jobs,
    shard_bounds,
)
from .executors import PoolExecutor, SerialExecutor
from .ingest import batch_pairs
from .sinks import merge_shard_results
from .stats import EngineStats


def _as_store(batch):
    """``batch`` if it is a :class:`repro.corpusstore.reader.CorpusStore`,
    else ``None``.

    Checked without importing the substrate package, so an in-process
    ``repro lint`` never loads it: while its reader module is not
    loaded, no store can exist.
    """
    reader = sys.modules.get("repro.corpusstore.reader")
    if reader is not None and isinstance(batch, reader.CorpusStore):
        return batch
    return None


class Engine:
    """Composes the four stages around one stats collector.

    ``stats`` is injectable (the service shares a daemon-lifetime
    collector; the CLI and benchmarks create one per run); omitted, a
    private collector is created so instrumentation is always on — the
    timers are a handful of ``perf_counter`` calls per shard, far below
    lint cost.
    """

    def __init__(self, stats: EngineStats | None = None):
        self.stats = stats if stats is not None else EngineStats()

    def _execute_tasks(self, tasks, executor) -> list:
        """Run shard tasks and fold worker timings into this engine.

        For a distributed executor the parent-side wall clock of the
        whole phase records as the ``execute`` stage; worker wall
        columns are dropped on merge (they overlap — summing them would
        overcount) and only their CPU/item columns fold in.
        """
        distributed = executor.distributed
        if distributed:
            with self.stats.time("execute", items=len(tasks)):
                results = executor.run(tasks)
        else:
            results = executor.run(tasks)
        for result in results:
            if result.timings is not None:
                self.stats.merge_timings(result.timings, worker=distributed)
        return sorted(results, key=lambda r: r.index)

    def run(
        self,
        batch,
        *,
        base_index: int = 0,
        jobs: int | None = None,
        shards: int | None = None,
        executor=None,
        output: ShardOutput = ShardOutput.SUMMARY,
        window=None,
        respect_effective_dates: bool = True,
    ) -> ParallelLintOutcome:
        """Lint one batch through the staged pipeline, exactly.

        ``batch`` is a :class:`repro.corpusstore.reader.CorpusStore`, a
        corpus (anything with ``.records``), corpus records, CT tail
        entries (``.der``/``.issued_at``) or ``(der, issued_at)`` pairs.
        Shards are deterministic and contiguous, ``jobs`` is clamped so
        no worker outnumbers the records, and the inline serial
        executor runs whenever one process suffices (``jobs=1`` or a
        single shard), else a fresh process pool.  An explicit
        ``executor`` overrides that choice and sets the job count the
        default shard count is sized for (``PoolExecutor(pool=...)``
        reuses a long-lived pool).  Every choice yields byte-identical
        output.

        One transport rule: a store ships as ``(path, start, stop)``
        references into its memory map; any other batch ships inline on
        a serial run and is *spilled* to a temporary substrate on a
        distributed one (one sequential write, unlinked when the run
        ends), so workers never receive pickled DER.

        ``output`` selects what ``outcome.reports`` holds per parsed
        certificate: nothing (``None``), the report objects, or the
        ``repro lint`` JSON or text body, rendered in the worker.  A
        record that does not parse is listed in the outcome's
        ``failures`` as ``(base_index + position, message)`` and the run
        goes on (:func:`run_corpus` raises on one instead).

        Pass ``window`` (a :class:`repro.engine.windows.WindowedSummary`)
        to fold each certificate's report tally and figure facts into it
        at log index ``base_index + position``, under the ``fold``
        stage; after folding entries ``[0, M)`` in any batch
        decomposition the window's grand total is structurally
        identical to one run over the same records.
        """
        with self.stats.time("ingest"):
            store = _as_store(batch)
            pairs = None if store is not None else batch_pairs(batch)
        total = len(store) if store is not None else len(pairs)
        if executor is not None:
            jobs = executor.jobs
        jobs = resolve_jobs(jobs, total=total)
        if total == 0:
            return merge_shard_results([], jobs, output)
        if shards is None:
            shards = default_shard_count(total, jobs)
        bounds = shard_bounds(total, shards)
        if executor is None:
            if jobs == 1 or len(bounds) == 1:
                executor, jobs = SerialExecutor(), 1
            else:
                executor = PoolExecutor(jobs)
        # Compile stage: build the dispatch plan in the parent before
        # any work is dispatched — serial runs use it directly, pool
        # runs inherit it copy-on-write under fork.  Timed so the
        # one-time classification cost shows as its own stage.
        from ..lint.compiled import warm_default_plan

        warm_default_plan(self.stats)
        options = dict(
            respect_effective_dates=respect_effective_dates,
            output=output,
            collect_facts=window is not None,
        )
        spill = None
        try:
            with self.stats.time("ingest", items=total):
                if store is not None:
                    tasks = build_store_shard_tasks(
                        store.path, total, shards, **options
                    )
                elif executor.distributed:
                    # Zero-copy dispatch: one sequential substrate write
                    # here beats pickling every shard's DER into the
                    # executor pipe.  The file is unlinked when the run
                    # ends, so it is written without an fsync.  Workers
                    # read it with the substrate reader: imported here,
                    # before a pool forks, each fork inherits it instead
                    # of paying the import in its first shard.
                    from ..corpusstore import reader  # noqa: F401
                    from ..corpusstore.writer import write_spill

                    fd, spill = _tempfile.mkstemp(
                        prefix="repro-corpus-", suffix=".rcs"
                    )
                    _os.close(fd)
                    write_spill(pairs, spill)
                    tasks = build_store_shard_tasks(spill, total, shards, **options)
                else:
                    tasks = build_pair_shard_tasks(pairs, shards, **options)
            self.stats.record_shards(
                [stop - start for start, stop in bounds], jobs=jobs
            )
            results = self._execute_tasks(tasks, executor)
        finally:
            if spill is not None:
                try:
                    _os.unlink(spill)
                except OSError:
                    pass
        # The workers' sink stage already counts each certificate; the
        # merge adds time, not items.
        with self.stats.time("sink"):
            outcome = merge_shard_results(results, jobs, output)
        # Results are in shard order, one per ``bounds`` entry.
        outcome.failures = [
            (base_index + start + offset, message)
            for (start, _), result in zip(bounds, results)
            for offset, message in result.failures
        ]
        if window is not None:
            with self.stats.time("fold", items=total - len(outcome.failures)):
                for (start, _), result in zip(bounds, results):
                    for offset, counts, facts in result.facts:
                        position = start + offset
                        if store is None:
                            issued_at = pairs[position][1]
                        else:
                            issued_at = store.issued_at(position)
                        window.fold_tally(
                            base_index + position, issued_at, counts, facts
                        )
        return outcome


def run_corpus(
    corpus, jobs: int | None = None, *, stats=None, **options
) -> ParallelLintOutcome:
    """One-shot corpus run on a fresh engine that counts every record.

    Pass ``stats=`` to observe the run's per-stage breakdown; the other
    keyword arguments go to :meth:`Engine.run`.  A corpus outcome must
    count every record, so one that does not parse fails the run with a
    :class:`ShardError` naming its shard and record index.  Every corpus
    run (``analysis.compliance.lint_corpus`` and ``repro corpus`` too)
    passes through this check.
    """
    outcome = Engine(stats).run(corpus, jobs=jobs, **options)
    if outcome.failures:
        record, message = outcome.failures[0]
        total = outcome.summary.total + len(outcome.failures)
        starts = [start for start, _ in shard_bounds(total, outcome.shards)]
        shard = bisect.bisect_right(starts, record) - 1
        raise ShardError(shard, f"record {record}: {message}")
    return outcome
