"""The lint-as-a-service daemon.

Routes
------

* ``POST /lint`` — one certificate (PEM, raw DER, or base64 of either)
  → the exact ``python -m repro lint --json`` document.
* ``POST /lint/batch`` — ``{"certificates": [<b64/PEM string>, ...]}``
  → per-certificate reports or structured per-item errors.
* ``GET /rules`` — the 95 frozen constraint rules.
* ``GET /healthz`` — liveness + drain state.
* ``GET /metrics`` — cache / batcher / queue / request counters.

Data path for a ``POST /lint``::

    body → sniff PEM/DER/base64 → sha256 key ── hit ──→ cached body
                                   │ miss
                                   ▼
          admission (bounded; full → 429 + Retry-After)
                                   │
                                   ▼
          in-flight dedup (same DER already dispatched → share future)
                                   │
                                   ▼
          micro-batcher → LintPool.submit_shard → lint_shard (worker):
          decode → lint → report_to_json → cache, or unparseable → 400

Nothing decodes on the event loop, so a cache hit costs a sniff and a
hash.  The body is byte-identical to ``repro lint --json`` because the
worker loop (:func:`repro.lint.parallel.lint_shard` with
``ShardOutput.JSON``) parses with the same tolerant parser, runs the
registry snapshot and renders with ``report_to_json(report, cert)``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as _cf
import contextlib
import json
import signal
import time
from dataclasses import dataclass
from typing import Callable

from ..engine.ingest import IngestError, sniff_certificate_bytes
from ..engine.stats import EngineStats
from ..lint.parallel import LintPool, ShardError, ShardOutput, ShardResult, ShardTask
from .batcher import MicroBatcher
from .cache import ResultCache, cache_key
from .http import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    render_response,
)


@dataclass
class ServiceConfig:
    """Tunables for one daemon instance (all CLI-exposed where noted)."""

    host: str = "127.0.0.1"
    port: int = 8750  #: 0 = ephemeral (the bound port lands on service.port)
    jobs: int | None = None  #: lint worker processes (--jobs)
    cache_size: int = 1024  #: LRU entries (--cache-size)
    max_queue: int = 256  #: admitted-but-unfinished lint cap (--max-queue)
    max_batch: int = 16  #: certificates per worker dispatch
    batch_delay: float = 0.002  #: micro-batch straggler wait, seconds
    request_timeout: float = 30.0  #: per-request lint deadline (504 past it)
    max_body: int = 4 * 1024 * 1024  #: request body cap (413 past it)
    retry_after: float = 1.0  #: Retry-After hint on 429


def decode_certificate_body(data: bytes) -> bytes:
    """Accept PEM, raw DER, or base64-of-either; return DER bytes.

    Thin HTTP adapter over the engine's unified ingest stage
    (:func:`repro.engine.ingest.sniff_certificate_bytes`): the CLI and
    the service now share one sniffing implementation and one
    ``empty_body``/``bad_pem``/``bad_body`` taxonomy, surfaced here as
    structured 400s.
    """
    try:
        return sniff_certificate_bytes(data)
    except IngestError as exc:
        raise HttpError(400, exc.code, exc.message) from exc


def _settle_bridge(future: _cf.Future, result=None, exception=None) -> None:
    """Settle a bridge future, tolerating the drain/worker race.

    ``_unwrap`` runs on the executor's callback thread while
    ``_drain_bridges`` runs on the event loop; whichever settles second
    must lose quietly rather than raise ``InvalidStateError``.
    """
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
    except _cf.InvalidStateError:
        pass


def _request_outcomes(result: ShardResult) -> list:
    """One body or one 400 per certificate of a micro-batch, in order."""
    failed = dict(result.failures)
    bodies = iter(result.reports or ())
    return [
        HttpError(400, "unparseable_certificate", failed[i]) if i in failed else next(bodies)
        for i in range(result.count)
    ]


def rules_payload() -> list[dict]:
    """The 95 constraint rules as JSON (the ``GET /rules`` document)."""
    from ..lint.constraints import CONSTRAINT_RULES

    return [
        {
            "rule_id": rule.rule_id,
            "lint": rule.lint_name,
            "field": rule.field,
            "structures": rule.structures,
            "requirement": rule.requirement,
            "requirement_level": rule.requirement_level,
            "source": rule.source_document,
            "new": rule.new,
            "type": rule.nc_type.value,
        }
        for rule in CONSTRAINT_RULES
    ]


class LintService:
    """One daemon instance: listener + cache + batcher + worker pool.

    Each micro-batch is one :class:`ShardTask` submitted through
    ``pool.submit_shard``.  ``pool`` may be injected (anything with
    ``submit_shard`` and ``shutdown``); the service then does not own
    its lifecycle.  Tests use this to wedge a deliberately slow pool and
    observe backpressure.
    """

    def __init__(self, config: ServiceConfig | None = None, pool=None):
        self.config = config or ServiceConfig()
        self._pool = pool
        self._owns_pool = pool is None
        self.engine_stats = EngineStats()
        self.cache = ResultCache(self.config.cache_size)
        self.batcher = MicroBatcher(
            self._dispatch,
            max_batch=self.config.max_batch,
            max_delay=self.config.batch_delay,
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight: dict[str, asyncio.Future] = {}
        #: Live (inner, outer) pool-bridge future pairs.  drain() uses
        #: these to bound shutdown: a wedged worker must not strand the
        #: request futures chained behind the outer bridge forever.
        self._bridges: set[tuple[_cf.Future, _cf.Future]] = set()
        self._pending = 0
        self._draining = False
        self._started_at: float | None = None
        self.port: int | None = None
        self.requests_total = 0
        self.responses_by_status: dict[int, int] = {}
        self.rejected_total = 0
        self.timeouts_total = 0
        self.certs_linted = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        if self._pool is None:
            # Compile stage first: classify the registry into the
            # dispatch plan in this process (timed into /metrics), so
            # forked workers inherit it copy-on-write.
            from ..lint.compiled import warm_default_plan

            warm_default_plan(self.engine_stats)
            self._pool = LintPool(self.config.jobs)
            # Warm the pool at boot: fork/spawn plus the registry
            # snapshot/index build land here, not inside the first
            # request's latency budget.  Off the event loop — worker
            # start-up can take hundreds of milliseconds.
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.prewarm
            )
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish what was admitted.

        SIGTERM lands here: the listener closes first (new connections
        are refused at the TCP level), in-flight connections run to
        completion, the pool bridge is bounded (wedged worker batches
        are force-settled after ``request_timeout``), the batcher
        flushes, and finally the worker pool — if this service owns it —
        is torn down.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._drain_bridges()
        await self.batcher.stop()
        if self._owns_pool and self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown
            )

    # -- pool bridge --------------------------------------------------

    def _dispatch(self, ders):
        """Dispatch one micro-batch as a shard task with JSON output,
        folding the worker's per-stage seconds into this daemon's
        :class:`EngineStats` (the ``stages`` block of ``/metrics``).
        The bridge resolves to :func:`_request_outcomes`; a worker error
        fails the whole batch."""
        task = ShardTask(
            index=0,
            certs_der=ders,
            issued_at=(None,) * len(ders),
            output=ShardOutput.JSON,
        )
        inner = self._pool.submit_shard(task)
        outer: _cf.Future = _cf.Future()
        self._track_bridge(inner, outer)

        def _unwrap(done: _cf.Future) -> None:
            if outer.done():
                return  # drain() already settled the bridge
            try:
                result = done.result()
                if result.error is not None:
                    raise ShardError(result.index, result.error)
            except BaseException as exc:
                _settle_bridge(outer, exception=exc)
                return
            # worker=True: the batch ran in a pool process, so its wall
            # column is dropped — only CPU seconds and item counts are
            # additive across workers into the daemon-lifetime stats.
            self.engine_stats.merge_timings(result.timings, worker=True)
            _settle_bridge(outer, result=_request_outcomes(result))

        inner.add_done_callback(_unwrap)
        return outer

    def _track_bridge(self, inner: _cf.Future, outer: _cf.Future) -> None:
        pair = (inner, outer)
        self._bridges.add(pair)
        outer.add_done_callback(lambda _fut: self._bridges.discard(pair))

    async def _drain_bridges(self) -> None:
        """Bound shutdown on the pool bridge.

        Waits (off-loop) up to ``request_timeout`` for in-flight worker
        batches, then cancels what never started and force-settles the
        outer bridge futures so every request future chained behind them
        resolves.  Without this a wedged worker leaves ``drain()``
        awaiting the batcher forever and SIGTERM strands all callers.
        """
        inners = list({inner for inner, _ in self._bridges})
        if inners:
            await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: _cf.wait(inners, timeout=self.config.request_timeout),
            )
        for inner, outer in sorted(self._bridges, key=id):
            inner.cancel()
            if not outer.done():
                _settle_bridge(
                    outer,
                    exception=RuntimeError(
                        "service drained before the worker batch completed"
                    ),
                )

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            try:
                request = await read_request(reader, self.config.max_body)
            except HttpError as exc:
                writer.write(error_response(exc))
                return
            if request is None:
                return
            self.requests_total += 1
            response = await self._route(request)
            writer.write(response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                await writer.drain()
                writer.close()
                await writer.wait_closed()

    async def _route(self, request: Request) -> bytes:
        try:
            handler, methods = _ROUTES.get(request.path, (None, ()))
            if handler is None:
                raise HttpError(404, "not_found", f"no route for {request.path}")
            if request.method not in methods:
                raise HttpError(
                    405,
                    "method_not_allowed",
                    f"{request.path} accepts {'/'.join(methods)}",
                )
            response = await handler(self, request)
        except HttpError as exc:
            if exc.status == 429:
                self.rejected_total += 1
            response = error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive
            response = error_response(
                HttpError(500, "internal_error", f"{type(exc).__name__}: {exc}")
            )
        status = int(response.split(b" ", 2)[1])
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )
        return response

    # -- the lint data path -------------------------------------------

    async def _lint_der(self, der: bytes) -> str:
        """Cache → admission → in-flight dedup → batcher → cache (bodies
        only: an unparseable certificate's 400 is not cached)."""
        key = cache_key(der)
        cached = self.cache.get(key)
        if cached is not None:
            self.engine_stats.record_cache(hits=1)
            return cached
        self.engine_stats.record_cache(misses=1)
        shared = self._inflight.get(key)
        if shared is None:
            if self._draining:
                raise HttpError(503, "draining", "service is shutting down")
            if self._pending >= self.config.max_queue:
                raise HttpError(
                    429,
                    "queue_full",
                    f"admission queue is full ({self.config.max_queue} in flight)",
                    retry_after=self.config.retry_after,
                )
            self._pending += 1
            shared = self.batcher.submit(der)
            self._inflight[key] = shared

            def _settle(fut: asyncio.Future, key=key) -> None:
                self._pending -= 1
                self._inflight.pop(key, None)
                if not fut.cancelled() and fut.exception() is None:
                    self.cache.put(key, fut.result())
                    self.certs_linted += 1

            shared.add_done_callback(_settle)
        try:
            # shield(): a per-request timeout must not cancel the shared
            # computation other waiters (and the cache) depend on.
            return await asyncio.wait_for(
                asyncio.shield(shared), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self.timeouts_total += 1
            raise HttpError(
                504,
                "lint_timeout",
                f"lint did not finish within {self.config.request_timeout}s",
            ) from None
        except HttpError:
            raise
        except Exception as exc:
            raise HttpError(
                500, "lint_failed", f"{type(exc).__name__}: {exc}"
            ) from exc

    async def _handle_lint(self, request: Request) -> bytes:
        body = await self._lint_der(decode_certificate_body(request.body))
        # print() in the CLI appends "\n"; matching it keeps the service
        # body byte-identical to `python -m repro lint --json` stdout.
        return render_response(200, body.encode("utf-8") + b"\n")

    async def _handle_lint_batch(self, request: Request) -> bytes:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, "bad_json", f"body is not JSON: {exc}") from exc
        items = payload.get("certificates") if isinstance(payload, dict) else None
        if not isinstance(items, list) or not items:
            raise HttpError(
                400,
                "bad_batch",
                'expected {"certificates": [<base64/PEM string>, ...]}',
            )
        ders: list[bytes | HttpError] = []
        for item in items:
            try:
                if not isinstance(item, str):
                    raise HttpError(400, "bad_batch_item", "items must be strings")
                ders.append(decode_certificate_body(item.encode("utf-8")))
            except HttpError as exc:
                ders.append(exc)

        async def _one(entry):
            if isinstance(entry, HttpError):
                return entry.to_dict()["error"]
            try:
                return json.loads(await self._lint_der(entry))
            except HttpError as exc:
                if exc.status == 429:
                    self.rejected_total += 1
                return exc.to_dict()["error"]

        results = await asyncio.gather(*(_one(entry) for entry in ders))
        body = {
            "count": len(results),
            "results": [
                {"index": i}
                | ({"error": r} if "status" in r and "code" in r else {"report": r})
                for i, r in enumerate(results)
            ],
        }
        return json_response(200, body)

    # -- introspection routes -----------------------------------------

    async def _handle_rules(self, request: Request) -> bytes:
        return json_response(200, {"count": len(rules_payload()), "rules": rules_payload()})

    async def _handle_healthz(self, request: Request) -> bytes:
        return json_response(
            200,
            {
                "status": "draining" if self._draining else "ok",
                "jobs": self._pool.jobs if self._pool is not None else None,
                "uptime_s": (
                    round(time.monotonic() - self._started_at, 3)
                    if self._started_at is not None
                    else None
                ),
            },
        )

    async def _handle_metrics(self, request: Request) -> bytes:
        return json_response(200, self.metrics())

    def metrics(self) -> dict:
        return {
            "requests_total": self.requests_total,
            "responses_by_status": {
                str(k): v for k, v in sorted(self.responses_by_status.items())
            },
            "certs_linted": self.certs_linted,
            "rejected_total": self.rejected_total,
            "timeouts_total": self.timeouts_total,
            "queue": {
                "pending": self._pending,
                "max": self.config.max_queue,
            },
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "stages": self.engine_stats.to_dict(),
            "draining": self._draining,
        }


_ROUTES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "/lint": (LintService._handle_lint, ("POST",)),
    "/lint/batch": (LintService._handle_lint_batch, ("POST",)),
    "/rules": (LintService._handle_rules, ("GET",)),
    "/healthz": (LintService._handle_healthz, ("GET",)),
    "/metrics": (LintService._handle_metrics, ("GET",)),
}


async def run_server(
    config: ServiceConfig | None = None,
    announce: Callable[[str], None] | None = None,
) -> None:
    """Run a daemon until SIGTERM/SIGINT, then drain gracefully."""
    service = LintService(config)
    await service.start()
    if announce is not None:
        announce(
            f"repro lint service listening on "
            f"http://{service.config.host}:{service.port} "
            f"(jobs={service._pool.jobs}, cache={service.config.cache_size}, "
            f"max-queue={service.config.max_queue})"
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or platform without signal support
    serve = asyncio.ensure_future(service.serve_forever())
    await stop.wait()
    if announce is not None:
        announce("repro lint service draining...")
    await service.drain()
    serve.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serve
    if announce is not None:
        announce("repro lint service stopped")
