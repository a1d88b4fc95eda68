"""Executors: pluggable strategies for running the engine's lint stage.

An executor takes the ingest stage's :class:`~repro.lint.parallel.ShardTask`
list and returns one :class:`~repro.lint.parallel.ShardResult` per task,
raising :class:`~repro.lint.parallel.ShardError` on the first worker
error (``result.error``).  An unparseable record is not one: it comes
back in ``result.failures`` and the caller decides (a corpus run raises,
a tail batch reports it and moves on).  Two strategies ship:

* :class:`SerialExecutor` — every shard inline in this process, in
  order.  This is the *reference semantics*: anything another executor
  returns must be exactly what the serial executor would have returned
  (the equivalence tests enforce it).
* :class:`PoolExecutor` — shards fan out over a
  :class:`~repro.lint.parallel.LintPool` of worker processes, results
  stream back ``as_completed`` with fail-fast cancellation.

Both run the same worker function (:func:`repro.lint.parallel.lint_shard`)
over the same deterministic shard boundaries, which is what makes every
executor's merged output byte-identical.
"""

from __future__ import annotations

from typing import Sequence

from ..lint.parallel import (
    LintPool,
    ShardError,
    ShardResult,
    ShardTask,
    lint_shard,
    resolve_jobs,
)


class SerialExecutor:
    """Run every shard inline, in order — the reference semantics."""

    jobs = 1
    #: Worker timings from this executor were measured *in this
    #: process*: their wall clock is the caller's wall clock.
    distributed = False

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardResult]:
        """Execute the shards one after another in this process."""
        results: list[ShardResult] = []
        for task in tasks:
            result = lint_shard(task)
            if result.error:
                raise ShardError(result.index, result.error)
            results.append(result)
        return results


class PoolExecutor:
    """Fan shards out over a process pool, fail-fast on shard errors.

    Pass ``pool`` to reuse a long-lived :class:`LintPool`; otherwise an
    ephemeral pool is created per :meth:`run` and torn down afterwards.
    With a pool, ``jobs`` defaults to its worker count and is clamped
    to it.
    """

    #: Worker timings come from other processes; their wall clocks
    #: overlap and must not sum into the parent's wall block.
    distributed = True

    def __init__(self, jobs: int | None = None, pool: LintPool | None = None):
        self.pool = pool
        self.jobs = resolve_jobs(jobs)
        if pool is not None:
            self.jobs = pool.jobs if jobs is None else min(self.jobs, pool.jobs)

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardResult]:
        """Execute the shards on worker processes, streaming results."""
        from concurrent.futures import as_completed

        pool = self.pool
        owned = pool is None
        if pool is None:
            pool = LintPool(self.jobs)
        results: list[ShardResult] = []
        try:
            futures = [pool.submit_shard(task) for task in tasks]
            # as_completed streams results back as shards finish; the
            # parent fails fast on the first structured error instead
            # of waiting for the stragglers.
            for future in as_completed(futures):
                result = future.result()
                if result.error:
                    for pending in futures:
                        pending.cancel()
                    raise ShardError(result.index, result.error)
                results.append(result)
        finally:
            if owned:
                pool.shutdown(wait=False)
        return results
