"""Lint-as-a-service: the linter as an online daemon.

The paper released its Unicert linter as a batch tool; CT-ecosystem
measurement pipelines consume certificate analysis as a *service* fed
by continuous log ingestion.  This package is that layer, stdlib-only:

* :class:`LintService` / :func:`run_server` — asyncio JSON-over-HTTP
  daemon (``POST /lint``, ``POST /lint/batch``, ``GET /rules``,
  ``GET /healthz``, ``GET /metrics``) with a micro-batcher, a
  DER-content-addressed LRU result cache, bounded admission with 429
  backpressure, per-request timeouts, and graceful SIGTERM drain.
* :class:`LintServiceClient` — blocking stdlib client.
* :class:`ThreadedService` — in-process harness for tests/benches.

Started from the CLI as ``python -m repro serve``.
"""
