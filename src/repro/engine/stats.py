"""Per-stage instrumentation for the staged lint engine.

Every engine run — CLI, parallel corpus, service batch, benchmark —
threads one injectable :class:`EngineStats` collector through the
stages (``ingest`` → [``execute``] → ``decode`` → ``lint`` → ``sink``).
The collector records *two clocks* per stage:

* **wall** (``time.perf_counter``) — elapsed time as a caller
  experiences it;
* **cpu** (``time.process_time``) — processor time the stage actually
  burned in its own process.

The split exists because worker processes cannot share the parent's
collector: the worker side accumulates into a picklable
:class:`StageTimings` record that the parent folds back in with
:meth:`EngineStats.merge_timings`.  Summing worker *wall* clocks across
N time-sliced processes produces a number up to N× the real elapsed
time — the old single-clock schema reported exactly that inflation as
"seconds".  Now worker merges (``worker=True``) keep only the CPU and
item columns, and the parent's own ``execute`` stage records the true
wall-clock of the distributed phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Canonical stage order for rendering (unknown stages sort after).
#: ``compile`` is the one-time lint-registry classification
#: (:mod:`repro.lint.compiled`), recorded where it runs — the parent.
#: ``execute`` is the parent-side wall-clock of a distributed pool run,
#: recorded between ``ingest`` and the worker-side stages it spans.
#: ``fold`` is the incremental engine's windowed aggregation
#: (:meth:`repro.engine.pipeline.Engine.run` folding report tallies into a
#: :class:`~repro.engine.windows.WindowedSummary` after the sink merge).
STAGE_ORDER = ("ingest", "compile", "execute", "decode", "lint", "sink", "fold")


def _stage_sort_key(name: str) -> tuple[int, str]:
    try:
        return (STAGE_ORDER.index(name), name)
    except ValueError:
        return (len(STAGE_ORDER), name)


@dataclass
class StageTimings:
    """A picklable, mergeable per-stage accounting record.

    ``wall``, ``cpu``, and ``items`` are keyed by stage name.  Workers
    build one of these per batch/shard and ship it across the process
    boundary alongside the payload; merging is plain addition, so any
    grouping of partial timings sums to the same totals.
    """

    wall: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    certs: int = 0
    bytes: int = 0

    @contextmanager
    def time(self, stage: str, items: int = 0):
        """Context manager: add the block's elapsed wall and CPU time."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            self.add(
                stage,
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                items,
            )

    def add(
        self, stage: str, wall: float, cpu: float = 0.0, items: int = 0
    ) -> None:
        """Record ``wall``/``cpu`` seconds (and ``items``) for a stage."""
        self.wall[stage] = self.wall.get(stage, 0.0) + wall
        if cpu:
            self.cpu[stage] = self.cpu.get(stage, 0.0) + cpu
        if items:
            self.items[stage] = self.items.get(stage, 0) + items

    def merge(self, other: "StageTimings", worker: bool = False) -> "StageTimings":
        """Fold another record into this one (exact; returns ``self``).

        ``worker=True`` marks ``other`` as coming from a *different
        process* in a distributed run: its CPU and item columns merge
        (CPU seconds are additive across processes by definition), but
        its wall column is dropped — N workers' wall clocks overlap,
        and summing them would report up to N× the real elapsed time.
        The parent's ``execute`` stage carries the true wall-clock of
        the distributed phase instead.
        """
        if not worker:
            for stage, wall in other.wall.items():
                self.wall[stage] = self.wall.get(stage, 0.0) + wall
        for stage, cpu in other.cpu.items():
            self.cpu[stage] = self.cpu.get(stage, 0.0) + cpu
        for stage, items in other.items.items():
            self.items[stage] = self.items.get(stage, 0) + items
        self.certs += other.certs
        self.bytes += other.bytes
        return self

    def stages(self) -> list[str]:
        """All recorded stage names in canonical order."""
        seen = set(self.wall) | set(self.cpu) | set(self.items)
        return sorted(seen, key=_stage_sort_key)


@dataclass
class EngineStats:
    """Injectable per-run stats collector for the staged engine.

    One instance per logical run (a CLI invocation, a corpus pass, a
    service daemon's lifetime).  Not thread-safe by design: the CLI and
    benchmarks are single-threaded and the service touches it only from
    the event loop — the same single-writer discipline as
    :class:`repro.service.cache.ResultCache`.
    """

    timings: StageTimings = field(default_factory=StageTimings)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Shard-balance gauge: record counts of the last corpus run's shards.
    shard_sizes: list[int] = field(default_factory=list)
    jobs: int | None = None

    # -- recording ----------------------------------------------------

    def time(self, stage: str, items: int = 0):
        """Time one stage on both clocks (see :meth:`StageTimings.time`)."""
        return self.timings.time(stage, items)

    def add(
        self, stage: str, wall: float, cpu: float = 0.0, items: int = 0
    ) -> None:
        """Record pre-measured stage time (see :meth:`StageTimings.add`)."""
        self.timings.add(stage, wall, cpu, items)

    def record_cache(self, hits: int = 0, misses: int = 0) -> None:
        """Accumulate cache hit/miss gauges (service result cache)."""
        self.cache_hits += hits
        self.cache_misses += misses

    def record_shards(self, sizes: list[int], jobs: int | None = None) -> None:
        """Record the shard-size distribution of one parallel run."""
        self.shard_sizes = list(sizes)
        if jobs is not None:
            self.jobs = jobs

    def merge_timings(self, timings: StageTimings, worker: bool = False) -> None:
        """Fold a :class:`StageTimings` into this collector.

        Pass ``worker=True`` when ``timings`` was measured in another
        process (pool shard, service batch worker): its wall column is
        dropped so parallel wall clocks never sum into the wall block.
        """
        self.timings.merge(timings, worker=worker)

    # -- rendering ----------------------------------------------------

    def stage_wall_seconds(self) -> dict[str, float]:
        """Per-stage wall seconds in canonical stage order."""
        return {
            stage: self.timings.wall[stage]
            for stage in self.timings.stages()
            if stage in self.timings.wall
        }

    def stage_cpu_seconds(self) -> dict[str, float]:
        """Per-stage CPU seconds in canonical stage order."""
        return {
            stage: self.timings.cpu[stage]
            for stage in self.timings.stages()
            if stage in self.timings.cpu
        }

    def to_dict(self) -> dict:
        """The ``stages`` block: JSON-ready snapshot of this collector."""
        stages = {
            stage: {
                "wall_seconds": round(self.timings.wall.get(stage, 0.0), 6),
                "cpu_seconds": round(self.timings.cpu.get(stage, 0.0), 6),
                "items": self.timings.items.get(stage, 0),
            }
            for stage in self.timings.stages()
        }
        payload: dict = {
            "stages": stages,
            "certs": self.timings.certs,
            "bytes": self.timings.bytes,
        }
        if self.cache_hits or self.cache_misses:
            payload["cache"] = {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }
        if self.shard_sizes:
            sizes = self.shard_sizes
            payload["shards"] = {
                "count": len(sizes),
                "min": min(sizes),
                "max": max(sizes),
                "mean": round(sum(sizes) / len(sizes), 2),
            }
        if self.jobs is not None:
            payload["jobs"] = self.jobs
        return payload

    def render_lines(self) -> list[str]:
        """Human-readable breakdown (what ``repro lint --stats`` prints)."""
        lines = ["engine stats:"]
        for stage in self.timings.stages():
            wall = self.timings.wall.get(stage)
            cpu = self.timings.cpu.get(stage)
            items = self.timings.items.get(stage, 0)
            cols = []
            if wall is not None:
                cols.append(f"{wall:9.4f}s wall")
            if cpu is not None:
                cols.append(f"{cpu:9.4f}s cpu")
            suffix = f"  ({items} item{'s' if items != 1 else ''})" if items else ""
            lines.append(f"  {stage + ':':<8}{'  '.join(cols)}{suffix}")
        lines.append(
            f"  certs: {self.timings.certs}   bytes: {self.timings.bytes}"
        )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  cache: {self.cache_hits} hit(s), "
                f"{self.cache_misses} miss(es)"
            )
        if self.shard_sizes:
            sizes = self.shard_sizes
            jobs = f", jobs {self.jobs}" if self.jobs is not None else ""
            lines.append(
                f"  shards: {len(sizes)} (min {min(sizes)}, max {max(sizes)}"
                f"{jobs})"
            )
        return lines
