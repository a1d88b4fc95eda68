"""Unit tests for the micro-batcher (pure asyncio, fake dispatch)."""

import asyncio
import concurrent.futures as cf

import pytest

from repro.service.batcher import MicroBatcher


class FakeDispatch:
    """Records batches; resolves each future immediately with markers."""

    def __init__(self, fail: Exception | None = None):
        self.batches: list[tuple[bytes, ...]] = []
        self.fail = fail

    def __call__(self, ders: tuple[bytes, ...]) -> cf.Future:
        self.batches.append(ders)
        future: cf.Future = cf.Future()
        if self.fail is not None:
            future.set_exception(self.fail)
        else:
            future.set_result([f"lint:{der.decode()}" for der in ders])
        return future


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_submits_share_batches(self):
        async def scenario():
            dispatch = FakeDispatch()
            batcher = MicroBatcher(dispatch, max_batch=16, max_delay=0.01)
            batcher.start()
            futures = [batcher.submit(f"c{i}".encode()) for i in range(10)]
            results = await asyncio.gather(*futures)
            await batcher.stop()
            return dispatch, results

        dispatch, results = run(scenario())
        # 10 simultaneous submits coalesce into far fewer dispatches.
        assert len(dispatch.batches) < 10
        assert sum(len(b) for b in dispatch.batches) == 10
        assert results == [f"lint:c{i}" for i in range(10)]

    def test_max_batch_is_respected(self):
        async def scenario():
            dispatch = FakeDispatch()
            batcher = MicroBatcher(dispatch, max_batch=4, max_delay=0.01)
            batcher.start()
            futures = [batcher.submit(f"c{i}".encode()) for i in range(11)]
            await asyncio.gather(*futures)
            await batcher.stop()
            return dispatch

        dispatch = run(scenario())
        assert all(len(batch) <= 4 for batch in dispatch.batches)
        assert max(len(batch) for batch in dispatch.batches) == 4

    def test_results_map_back_in_order(self):
        async def scenario():
            dispatch = FakeDispatch()
            batcher = MicroBatcher(dispatch, max_batch=3, max_delay=0.001)
            batcher.start()
            futures = [batcher.submit(f"x{i}".encode()) for i in range(9)]
            results = await asyncio.gather(*futures)
            await batcher.stop()
            return results

        assert run(scenario()) == [f"lint:x{i}" for i in range(9)]

    def test_lone_request_pays_at_most_max_delay(self):
        async def scenario():
            dispatch = FakeDispatch()
            batcher = MicroBatcher(dispatch, max_batch=16, max_delay=0.005)
            batcher.start()
            start = asyncio.get_running_loop().time()
            await batcher.submit(b"solo")
            elapsed = asyncio.get_running_loop().time() - start
            await batcher.stop()
            return dispatch, elapsed

        dispatch, elapsed = run(scenario())
        assert dispatch.batches == [(b"solo",)]
        assert elapsed < 1.0  # scheduling noise aside, it didn't hang


class TestFailurePropagation:
    def test_dispatch_error_fails_every_future_in_the_batch(self):
        async def scenario():
            dispatch = FakeDispatch(fail=RuntimeError("worker died"))
            batcher = MicroBatcher(dispatch, max_batch=8, max_delay=0.001)
            batcher.start()
            futures = [batcher.submit(f"c{i}".encode()) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.stop()
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)


class TestLifecycle:
    def test_stop_flushes_queued_work(self):
        async def scenario():
            dispatch = FakeDispatch()
            batcher = MicroBatcher(dispatch, max_batch=4, max_delay=0.05)
            batcher.start()
            futures = [batcher.submit(f"c{i}".encode()) for i in range(6)]
            await batcher.stop()  # drain must resolve everything queued
            return [future.result() for future in futures]

        assert run(scenario()) == [f"lint:c{i}" for i in range(6)]

    def test_submit_after_stop_is_refused(self):
        async def scenario():
            batcher = MicroBatcher(FakeDispatch(), max_batch=2, max_delay=0.001)
            batcher.start()
            await batcher.stop()
            with pytest.raises(RuntimeError):
                batcher.submit(b"late")

        run(scenario())

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            MicroBatcher(FakeDispatch(), max_batch=0)

    def test_stats_shape(self):
        async def scenario():
            dispatch = FakeDispatch()
            batcher = MicroBatcher(dispatch, max_batch=4, max_delay=0.001)
            batcher.start()
            await asyncio.gather(*[batcher.submit(b"a"), batcher.submit(b"b")])
            await batcher.stop()
            return batcher.stats()

        stats = run(scenario())
        assert stats["certs_dispatched"] == 2
        assert stats["batches_dispatched"] >= 1
        assert stats["largest_batch"] <= 4
