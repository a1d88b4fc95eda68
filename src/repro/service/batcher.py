"""Micro-batcher: coalesce in-flight lint requests into worker batches.

Crossing a process boundary costs the same whether the payload is one
certificate or sixteen, and the worker resolves its registry snapshot
once per batch dispatch either way.  So instead of one executor submit
per request, concurrent requests are coalesced: the collector drains
whatever is queued, waits up to ``max_delay`` for stragglers (classic
Nagle-style micro-batching), and dispatches at most ``max_batch``
certificates per worker call.  Under load the batches fill instantly
and the delay never engages; a lone request pays at most ``max_delay``.
"""

from __future__ import annotations

import asyncio
from typing import Callable

import concurrent.futures as _cf


class MicroBatcher:
    """Coalesces ``submit()`` calls into batched pool dispatches.

    ``dispatch`` is the pool bridge: it takes a tuple of DER blobs and
    returns a :class:`concurrent.futures.Future` resolving to one
    outcome per blob, in order: a rendered JSON string, or an exception
    that fails only that blob's request (the service's ``_dispatch``
    over :meth:`repro.lint.parallel.LintPool.submit_shard`).  A dispatch
    that raises fails every request of the batch.
    """

    def __init__(
        self,
        dispatch: Callable[[tuple[bytes, ...]], "_cf.Future[list[str | Exception]]"],
        max_batch: int = 16,
        max_delay: float = 0.002,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch = dispatch
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._queue: asyncio.Queue[tuple[bytes, asyncio.Future]] = asyncio.Queue()
        self._collector: asyncio.Task | None = None
        self._running: set[asyncio.Task] = set()
        self._outstanding: set[asyncio.Future] = set()
        self._stopped = False
        # Dispatch accounting (exposed via /metrics; the cache tests use
        # certs_dispatched to prove a hit never reaches a worker).
        self.batches_dispatched = 0
        self.certs_dispatched = 0
        self.largest_batch = 0

    def start(self) -> None:
        if self._collector is None:
            self._stopped = False
            self._collector = asyncio.get_running_loop().create_task(
                self._collect(), name="repro-service-batcher"
            )

    @property
    def depth(self) -> int:
        """Requests accepted but not yet handed to a worker."""
        return self._queue.qsize()

    def submit(self, der: bytes) -> "asyncio.Future[str]":
        """Enqueue one DER; the future resolves to its JSON body or
        raises its per-item exception."""
        if self._stopped:
            raise RuntimeError("batcher is stopped")
        future: asyncio.Future[str] = asyncio.get_running_loop().create_future()
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        self._queue.put_nowait((der, future))
        return future

    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            deadline = loop.time() + self.max_delay
            while len(batch) < self.max_batch:
                if not self._queue.empty():
                    batch.append(self._queue.get_nowait())
                    continue
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            task = loop.create_task(self._run_batch(batch))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _run_batch(
        self, batch: list[tuple[bytes, asyncio.Future]]
    ) -> None:
        self.batches_dispatched += 1
        self.certs_dispatched += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        try:
            outcomes = await asyncio.wrap_future(
                self._dispatch(tuple(der for der, _ in batch))
            )
        except BaseException as exc:
            # BaseException on purpose: a cancelled pool bridge surfaces
            # as CancelledError here, and swallowing it into nothing
            # would strand every request future in this batch forever.
            settle = (
                exc
                if isinstance(exc, Exception)
                else RuntimeError(f"batch dispatch aborted: {exc!r}")
            )
            for _, future in batch:
                if not future.done():
                    future.set_exception(settle)
            if not isinstance(exc, Exception):
                raise
            return
        for (_, future), outcome in zip(batch, outcomes):
            if future.done():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    async def stop(self) -> None:
        """Drain: dispatch everything queued, then wait for the workers.

        Part of graceful SIGTERM shutdown — admitted requests complete,
        new ``submit()`` calls are refused.
        """
        self._stopped = True
        pending = [f for f in self._outstanding if not f.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        if self._collector is not None:
            self._collector.cancel()
            try:
                await self._collector
            except asyncio.CancelledError:
                pass
            self._collector = None

    def stats(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay * 1e3,
            "depth": self.depth,
            "batches_dispatched": self.batches_dispatched,
            "certs_dispatched": self.certs_dispatched,
            "largest_batch": self.largest_batch,
        }
