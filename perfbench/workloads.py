"""The two workloads: batch corpus and CT-tail monitor.

Each function takes a :class:`harness.Context`, makes its inputs from
the seed, measures for ``ctx.seconds`` and returns a
:class:`harness.Outcome`.  ``ctx.trace`` selects the traced run: the
same operations with an :class:`~repro.engine.EngineStats` attached,
whose stage timings fill ``Outcome.layers`` instead of the end-to-end
figures.  Every call shape follows the program's own entry point (the
``repro corpus`` and ``repro monitor`` commands and their defaults); what each workload measures, and why, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import threading
import time

from harness import Context, Outcome, per_item, run_for

from repro.ct import CorpusGenerator, MonitorConfig, TailLog, TailMonitor, drive
from repro.engine import Engine, EngineStats, PoolExecutor, run_corpus
from repro.lint import summary_to_json
from repro.x509.pem import encode_pem


def _one_shot(records) -> str:
    """The reference: one serial batch-engine pass, as canonical JSON."""
    return summary_to_json(run_corpus(records, jobs=1).summary)


def _engine_layers(stats: EngineStats, certs: int) -> dict[str, float]:
    """Per-certificate CPU of the engine's stages, as ``repro --stats``
    reports them (worker CPU included when the run used a pool)."""
    cpu = stats.stage_cpu_seconds()
    return {
        f"{stage}_us_per_cert": per_item(cpu.get(stage, 0.0), certs)
        for stage in ("ingest", "decode", "lint", "sink")
    }


# ---------------------------------------------------------------------------
# corpus: the batch engine on a worker pool
# ---------------------------------------------------------------------------

CORPUS_SCALE = 1 / 50_000  # about 700 certificates
# One worker, so one process is busy at a time.  Two workers on the
# 2-CPU reference host spread 19-28% (IQR over median, ten runs) in
# items_per_s: they measured the host's scheduler, not the program.
CORPUS_JOBS = 1
SETTLE_TIMEOUT_S = 10.0


def corpus(ctx: Context) -> Outcome:
    """Lint a whole generated corpus per operation, as ``repro corpus``.

    One op is ``run_corpus(records, executor=PoolExecutor(1))``: the
    pool path of ``repro corpus`` with one worker — spill the records to
    a memory-mapped substrate, fork a fresh pool, lint the shards and
    merge.  Its items are the certificates.  The parent never lints
    before or during the timed loop, so each op's freshly forked worker
    starts with empty lint memos, as a ``repro corpus`` process does.
    After the loop every op's summary must serialize byte-identically to
    one serial run.  ``setup_s`` is a cold ``repro lint`` on one
    certificate: interpreter start, import and the one-time lint set-up.
    """
    records = CorpusGenerator(seed=ctx.seed, scale=CORPUS_SCALE).generate().records
    outcome = Outcome()
    if not ctx.trace:
        pem = ctx.workdir / "one.pem"
        pem.write_text(encode_pem(records[0].certificate.to_der()))
        # Exit 1 means "findings", which is a successful lint.
        outcome.cold_starts(ctx, ["lint", str(pem), "--json"], ok_codes=(0, 1))

    stats = EngineStats() if ctx.trace else None
    summaries: list = []

    def settle(i: int) -> None:
        # Each op's pool shuts down without waiting for its workers.
        # Wait for them, so one op's teardown overlaps neither the next
        # op nor a calibration sample.
        deadline = time.perf_counter() + SETTLE_TIMEOUT_S
        while multiprocessing.active_children() or threading.active_count() > 1:
            if time.perf_counter() > deadline:
                raise RuntimeError("corpus: pool workers did not exit")
            time.sleep(0.001)

    def op(i: int) -> int:
        summary = run_corpus(
            records, executor=PoolExecutor(CORPUS_JOBS), stats=stats
        ).summary
        summaries.append(summary)
        return summary.total

    run_for(ctx.seconds, op, outcome, prepare=settle)

    reference = _one_shot(records)
    for i, summary in enumerate(summaries):
        if summary_to_json(summary) != reference:
            outcome.failed += 1
            outcome.problem(f"corpus: op {i} diverged from the serial run")
    if ctx.trace:
        certs = outcome.items
        outcome.layers = _engine_layers(stats, certs)
        busy = sum(
            stats.stage_cpu_seconds().get(stage, 0.0)
            for stage in ("decode", "lint", "sink")
        )
        # Worker capacity (execute wall x workers) not spent on
        # certificates: pool start-up, dispatch, shard imbalance.
        idle = stats.stage_wall_seconds().get("execute", 0.0) * CORPUS_JOBS - busy
        outcome.layers["pool_idle_us_per_cert"] = per_item(max(idle, 0.0), certs)
    return outcome


# ---------------------------------------------------------------------------
# monitor: the CT-log tail
# ---------------------------------------------------------------------------

MONITOR_SCALE = 1 / 20_000  # about 1700 log entries per pass
RESTART_SCALE = 1 / 500_000  # about 70 entries for the timed CLI restarts


def _monitor_config(directory) -> MonitorConfig:
    """``repro monitor``'s defaults (256-entry polls, 1024-entry windows,
    one process) with a checkpoint and a segment store."""
    return MonitorConfig(
        checkpoint_path=str(directory / "monitor.ckpt"),
        store_dir=str(directory / "segments"),
    )


def monitor(ctx: Context) -> Outcome:
    """Tail a simulated CT log with a checkpointed monitor.

    One op is one ``TailMonitor.poll()`` (verify the signed tree head,
    fetch up to 256 entries, lint and fold them, append a segment,
    checkpoint); its items are the entries.  The log publishes a batch,
    untimed, whenever the monitor has caught up; when the corpus is used
    up the pass ends, its grand total must equal the one-shot batch run,
    and a new monitor starts cold on a fresh log over the same corpus.
    The monitor lints in its own process, so from the second pass on its
    lint memos already hold every string: this is the warm regime of a
    long-running tail, on purpose (``corpus`` measures the cold one).
    Before measuring, a monitor killed halfway and resumed from its
    checkpoint must reach the same total.  ``setup_s`` is a cold
    ``repro monitor --resume`` restart over a small log whose checkpoint
    is already at its end: interpreter start, import, regenerating the
    log, checkpoint load and digest.
    """
    corpus = CorpusGenerator(seed=ctx.seed, scale=MONITOR_SCALE).generate()
    reference = _one_shot(corpus.records)
    outcome = Outcome()

    if not ctx.trace:
        # Kill halfway, resume in a new monitor, finish: same total.
        directory = ctx.workdir / "resume"
        killed = TailMonitor(TailLog(corpus), _monitor_config(directory))
        killed.start(resume=False)
        polls = len(corpus.records) // killed.config.batch_size
        drive(killed, batches=polls // 2)
        resumed = TailMonitor(TailLog(corpus), _monitor_config(directory))
        if not resumed.start(resume=True) or resumed.position != killed.position:
            outcome.problem("monitor: resume did not restore the checkpoint")
        drive(resumed)
        if summary_to_json(resumed.window.total.summary) != reference:
            outcome.problem("monitor: resumed tail diverged from one-shot")

        restart = [
            "monitor", "--scale", str(RESTART_SCALE), "--seed", str(ctx.seed),
            "--checkpoint", "restart.ckpt", "--store-dir", "restart-segments",
            "--resume",
        ]
        ctx.cold_start(restart)  # the first run tails the log and checkpoints
        outcome.cold_starts(ctx, restart)

    stats = EngineStats()
    state = {"monitor": None, "passes": 0, "checkpoint_bytes": 0}

    def new_pass() -> None:
        directory = ctx.workdir / f"pass-{state['passes']}"
        state["monitor"] = TailMonitor(
            TailLog(corpus), _monitor_config(directory), engine=Engine(stats)
        )
        state["monitor"].start(resume=False)

    def end_pass() -> None:
        tail = state["monitor"]
        if summary_to_json(tail.window.total.summary) != reference:
            outcome.failed += 1
            outcome.problem(f"monitor: pass {state['passes']} diverged from one-shot")
        state["checkpoint_bytes"] = max(
            state["checkpoint_bytes"], os.path.getsize(tail.config.checkpoint_path)
        )
        shutil.rmtree(ctx.workdir / f"pass-{state['passes']}")
        state["passes"] += 1
        new_pass()

    def prepare(i: int) -> None:
        tail = state["monitor"]
        while tail.log.size <= tail.position:
            if tail.log.advance(tail.config.batch_size) == 0:
                end_pass()
                tail = state["monitor"]

    def op(i: int) -> int:
        batch = state["monitor"].poll()
        return batch.count if batch is not None else 0

    new_pass()
    run_for(ctx.seconds, op, outcome, prepare=prepare)

    if ctx.trace:
        entries = outcome.items
        outcome.layers = _engine_layers(stats, entries)
        engine_wall = sum(stats.stage_wall_seconds().values())
        outcome.layers.update(
            {
                "fold_us_per_entry": per_item(
                    stats.stage_cpu_seconds().get("fold", 0.0), entries
                ),
                "poll_overhead_us_per_entry": per_item(
                    max(sum(s for s, _ in outcome.ops) - engine_wall, 0.0),
                    entries,
                ),
                "checkpoint_kib": state["checkpoint_bytes"] / 1024.0,
            }
        )
    return outcome


WORKLOADS = {
    "corpus": corpus,
    "monitor": monitor,
}
