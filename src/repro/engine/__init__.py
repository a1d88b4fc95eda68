"""Staged lint engine: one pipeline behind every entry point.

The paper's measurement system is one conceptual pipeline — ingest
certificate bytes, decode DER, run the 95-rule registry, aggregate —
but the repo used to implement it four separate times (CLI loop,
sharded parallel path, service batcher, benchmark loops).
:mod:`repro.engine` models the run as explicit stages composed by
pluggable executors and sinks, with per-stage instrumentation on an
injectable :class:`EngineStats` collector:

* :mod:`repro.engine.ingest` — unified PEM/DER/base64 sniffing, the
  shared ``empty_body``/``bad_pem``/``bad_body`` error taxonomy, and
  the one batch-shape normalizer;
* :mod:`repro.engine.pipeline` — the :class:`Engine` core: one
  ``Engine.run`` for every lint run;
* :mod:`repro.engine.executors` — serial reference semantics and the
  process-pool fan-out;
* :mod:`repro.engine.sinks` — the exact ``CorpusSummary`` merge;
* :mod:`repro.engine.stats` — the collector surfaced as ``--stats``,
  the service ``/metrics`` ``stages`` block, and the per-layer figures
  of ``perfbench``'s traced runs.

Every worker-side run — corpus shards, tail batches and the service's
micro-batches — goes through one loop,
:func:`repro.lint.parallel.lint_shard`, which ships
:class:`StageTimings` and per-record decode failures back across the
process boundary.
"""

# The benchmark harness (perfbench/workloads.py) imports these names
# through the package; every other caller names the defining module.
from .executors import PoolExecutor  # noqa: F401
from .pipeline import Engine, run_corpus  # noqa: F401
from .stats import EngineStats  # noqa: F401
