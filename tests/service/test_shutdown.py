"""Shutdown soundness: bounded drain, settled futures, retry backoff.

A SIGTERM must never strand a caller: a wedged worker batch is
force-settled after ``request_timeout``, a cancelled pool bridge still
resolves every request future in the batch, and clients waiting for a
restarting daemon back off with jitter instead of hammering in lockstep.
"""

import asyncio
import concurrent.futures as cf
import random

import pytest

from repro.engine.stats import StageTimings
from repro.lint.parallel import ShardResult
from repro.service.client import LintServiceClient, RetryPolicy
from repro.service.server import ServiceConfig, HttpError, LintService
from repro.service.batcher import MicroBatcher

from .conftest import build_cert

DER = build_cert("drain.example.com").to_der()


class _WedgedPool:
    """A pool whose futures never resolve (a hung worker process)."""

    jobs = 1

    def __init__(self):
        self.futures: list[cf.Future] = []

    def submit_shard(self, task):
        future: cf.Future = cf.Future()
        self.futures.append(future)
        return future

    def shutdown(self, wait=True):
        pass


class TestBoundedDrain:
    def test_drain_returns_despite_wedged_worker(self):
        async def scenario():
            config = ServiceConfig(
                port=0,
                request_timeout=0.2,
                batch_delay=0.0,
                max_batch=1,
                cache_size=0,
            )
            pool = _WedgedPool()
            service = LintService(config, pool=pool)
            await service.start()
            # Admit one request; the wedged pool never answers, so the
            # caller gets the structured 504 at request_timeout.
            with pytest.raises(HttpError) as excinfo:
                await service._lint_der(DER)
            assert excinfo.value.status == 504
            assert service._bridges  # the batch is still in flight
            # Without bridge force-settling, drain() would await the
            # batcher (which awaits the wedged future) forever.
            await asyncio.wait_for(service.drain(), timeout=5.0)
            assert not service._bridges
            # The wedged inner future was cancelled on the way out.
            assert all(f.cancelled() for f in pool.futures)

        asyncio.run(scenario())

    def test_drain_waits_for_healthy_batches_first(self):
        async def scenario():
            config = ServiceConfig(
                port=0,
                request_timeout=5.0,
                batch_delay=0.0,
                max_batch=1,
                cache_size=0,
            )
            pool = _WedgedPool()
            service = LintService(config, pool=pool)
            await service.start()
            request = asyncio.ensure_future(service._lint_der(DER))
            for _ in range(100):
                if pool.futures:
                    break
                await asyncio.sleep(0.01)
            # The batch completes while drain is waiting on the bridge:
            # the admitted request must still get its real result.
            async def release():
                await asyncio.sleep(0.05)
                pool.futures[0].set_result(
                    ShardResult(
                        index=0, count=1, reports=["{}"], timings=StageTimings()
                    )
                )

            releaser = asyncio.ensure_future(release())
            await asyncio.wait_for(service.drain(), timeout=5.0)
            await releaser
            assert await request == "{}"

        asyncio.run(scenario())


class TestBatcherCancellation:
    def test_cancelled_dispatch_settles_request_futures(self):
        async def scenario():
            dispatched: list[cf.Future] = []

            def dispatch(ders):
                future: cf.Future = cf.Future()
                dispatched.append(future)
                return future

            batcher = MicroBatcher(dispatch, max_batch=1, max_delay=0.0)
            batcher.start()
            request = batcher.submit(b"\x30\x00")
            for _ in range(100):
                if dispatched:
                    break
                await asyncio.sleep(0.01)
            dispatched[0].cancel()
            # The request future settles with a real exception instead
            # of hanging behind a silently-swallowed CancelledError.
            with pytest.raises(RuntimeError, match="aborted"):
                await asyncio.wait_for(request, timeout=5.0)
            await batcher.stop()

        asyncio.run(scenario())


class TestRetryPolicy:
    def test_full_jitter_within_growing_ceiling(self):
        policy = RetryPolicy(base=0.1, cap=2.0, rng=random.Random(7))
        for attempt in range(12):
            ceiling = min(2.0, 0.1 * 2**attempt)
            delay = policy.delay(attempt)
            assert 0.0 <= delay <= ceiling

    def test_delay_sequence_is_deterministic_under_seeded_rng(self):
        first = RetryPolicy(base=0.1, cap=2.0, rng=random.Random(7))
        second = RetryPolicy(base=0.1, cap=2.0, rng=random.Random(7))
        assert [first.delay(i) for i in range(8)] == [
            second.delay(i) for i in range(8)
        ]

    def test_retry_after_is_honoured_and_capped(self):
        policy = RetryPolicy(base=0.1, cap=2.0, rng=random.Random(7))
        assert policy.delay(0, retry_after="0.7") == 0.7
        assert policy.delay(0, retry_after=0.3) == 0.3
        assert policy.delay(0, retry_after="99") == 2.0  # capped
        # Garbage headers fall back to jittered backoff.
        assert 0.0 <= policy.delay(0, retry_after="soon") <= 0.1

    def test_wait_ready_sleeps_the_policy_sequence(self, monkeypatch):
        slept: list[float] = []
        policy = RetryPolicy(
            base=0.1, cap=2.0, rng=random.Random(7), sleep=slept.append
        )
        client = LintServiceClient(port=1)  # nothing listens here
        failures = 5
        calls = {"n": 0}

        def fake_healthz():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise OSError("connection refused")
            return {"status": "ok"}

        monkeypatch.setattr(client, "healthz", fake_healthz)
        assert client.wait_ready(attempts=50, policy=policy) == {"status": "ok"}
        oracle = RetryPolicy(base=0.1, cap=2.0, rng=random.Random(7))
        assert slept == [oracle.delay(i) for i in range(failures)]

    def test_wait_ready_exhaustion_is_timeout(self, monkeypatch):
        policy = RetryPolicy(
            base=0.01, cap=0.02, rng=random.Random(1), sleep=lambda _d: None
        )
        client = LintServiceClient(port=1)
        monkeypatch.setattr(
            client, "healthz", lambda: (_ for _ in ()).throw(OSError("down"))
        )
        with pytest.raises(TimeoutError, match="not ready"):
            client.wait_ready(attempts=3, policy=policy)
