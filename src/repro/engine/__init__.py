"""Staged lint engine: one pipeline behind every entry point.

The paper's measurement system is one conceptual pipeline — ingest
certificate bytes, decode DER, run the 95-rule registry, aggregate —
but the repo used to implement it four separate times (CLI loop,
sharded parallel path, service batcher, benchmark loops).
:mod:`repro.engine` models the run as explicit stages composed by
pluggable executors and sinks, with per-stage instrumentation on an
injectable :class:`EngineStats` collector:

* :mod:`repro.engine.ingest` — unified PEM/DER/base64 sniffing and the
  shared ``empty_body``/``bad_pem``/``bad_body`` error taxonomy;
* :mod:`repro.engine.pipeline` — the :class:`Engine` core (stages);
* :mod:`repro.engine.executors` — serial reference semantics and the
  process-pool fan-out;
* :mod:`repro.engine.sinks` — CLI JSON/text documents and the exact
  ``CorpusSummary`` merge;
* :mod:`repro.engine.stats` — the collector surfaced as
  ``repro lint --stats``, the service ``/metrics`` ``stages`` block,
  and the per-stage breakdowns in ``BENCH_lint_throughput.json``.

Every worker-side run — corpus shards, tail batches and the service's
micro-batches — goes through one loop,
:func:`repro.lint.parallel.lint_shard`, which ships
:class:`StageTimings` and per-record decode failures back across the
process boundary.
"""

from .executors import PoolExecutor, SerialExecutor
from .ingest import IngestError, SourceItem, corpus_records, read_path, sniff_certificate_bytes
from .pipeline import Engine, EngineItem, increment_pairs, run_corpus, run_increment
from .sinks import merge_shard_results, render_text_report
from .stats import EngineStats, StageTimings
from .windows import (
    Alert,
    AlertPolicy,
    CertFacts,
    WindowConfig,
    WindowStats,
    WindowedSummary,
    cert_facts,
)

__all__ = [
    "Alert",
    "AlertPolicy",
    "CertFacts",
    "Engine",
    "EngineItem",
    "EngineStats",
    "IngestError",
    "PoolExecutor",
    "SerialExecutor",
    "SourceItem",
    "StageTimings",
    "WindowConfig",
    "WindowStats",
    "WindowedSummary",
    "cert_facts",
    "corpus_records",
    "increment_pairs",
    "merge_shard_results",
    "read_path",
    "render_text_report",
    "run_corpus",
    "run_increment",
    "sniff_certificate_bytes",
]
