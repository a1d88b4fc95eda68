"""Sharded corpus-lint pipeline: single-core vs multi-core throughput.

Measures three configurations over the same seeded corpus:

* the classic sequential path (``run_lints`` per record + ``summarize``),
* the sharded pipeline at ``--jobs 1`` (same shard code, inline),
* the sharded pipeline at ``--jobs 4`` (worker processes).

Two properties are asserted:

1. **Exactness** — all three summaries serialize byte-identically
   (always; this is the pipeline's core guarantee).
2. **Speedup** — with at least 4 usable CPUs, the 4-job pipeline must
   reach ≥ 2x the sequential baseline's certificates/second.  On
   smaller machines the speedup is recorded in the output file but not
   asserted: a multi-process speedup claim measured on one core would
   be fiction.
"""

import os
import time

from repro.analysis.compliance import lint_corpus
from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import run_corpus
from repro.engine.stats import EngineStats
from repro.lint.runner import summarize
from repro.lint.serialization import summary_to_json
from repro.lint.parallel import LintPool, usable_cpus as _usable_cpus

SCALE = float(os.environ.get("REPRO_BENCH_PARALLEL_SCALE", 1 / 10000))
SEED = int(os.environ.get("REPRO_BENCH_SEED", 2025))
JOBS = 4


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_parallel_corpus_throughput(write_output):
    corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
    total = len(corpus.records)

    sequential_summary, sequential_s = _timed(
        lambda: summarize(lint_corpus(corpus, jobs=1))
    )
    inline, inline_s = _timed(lambda: run_corpus(corpus, jobs=1))
    # Warm pool: worker start-up and the registry snapshot/index build
    # happen before the clock starts — the fanout number measures
    # steady-state dispatch over the mmap substrate, not fork cost.
    fanout_stats = EngineStats()
    with LintPool(JOBS) as pool:
        pool.prewarm()
        fanout, fanout_s = _timed(
            lambda: run_corpus(corpus, jobs=JOBS, pool=pool, stats=fanout_stats)
        )

    # Exactness: byte-identical summaries across every configuration.
    baseline_json = summary_to_json(sequential_summary)
    assert summary_to_json(inline.summary) == baseline_json
    assert summary_to_json(fanout.summary) == baseline_json

    seq_rate = total / sequential_s
    inline_rate = total / inline_s
    fanout_rate = total / fanout_s
    speedup = fanout_rate / seq_rate
    cpus = _usable_cpus()

    lines = [
        f"corpus: {total} certs (seed={SEED}, scale={SCALE:g})",
        f"usable CPUs: {cpus}",
        f"sequential baseline:   {sequential_s:8.2f}s  {seq_rate:10.1f} certs/s",
        f"pipeline --jobs 1:     {inline_s:8.2f}s  {inline_rate:10.1f} certs/s",
        f"pipeline --jobs {JOBS}:     {fanout_s:8.2f}s  {fanout_rate:10.1f} certs/s",
        f"speedup at {JOBS} jobs over sequential: {speedup:.2f}x",
        "stages at --jobs %d (parent wall): %s"
        % (
            JOBS,
            ", ".join(
                f"{stage} {seconds:.2f}s"
                for stage, seconds in fanout_stats.stage_wall_seconds().items()
            ),
        ),
        "stages at --jobs %d (worker cpu, summed): %s"
        % (
            JOBS,
            ", ".join(
                f"{stage} {seconds:.2f}s"
                for stage, seconds in fanout_stats.stage_cpu_seconds().items()
            ),
        ),
        f"summaries byte-identical across all configurations: yes",
    ]
    if cpus >= JOBS:
        lines.append(f"asserting speedup >= 2.0 (machine has {cpus} CPUs)")
    else:
        lines.append(
            f"speedup not asserted: only {cpus} usable CPU(s); a {JOBS}-process"
            " speedup cannot manifest without the cores"
        )
    write_output("bench_parallel_corpus", lines)

    if cpus >= JOBS:
        assert speedup >= 2.0, (
            f"expected >= 2x throughput at {JOBS} jobs on {cpus} CPUs, "
            f"measured {speedup:.2f}x"
        )
