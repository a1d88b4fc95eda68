"""Fixture: the repaired twin of ``concurrency_bad`` — zero findings.

Same shapes, each violation fixed the way the live tree fixes it: the
worker memo is a bounded ``ProcessMemo``, the coroutine awaits
``asyncio.sleep``, the submit target is a module-level function, and
the handle is context-managed.
"""

import asyncio

from repro.memo import ProcessMemo

_MEMO = ProcessMemo(1024)


def _worker_main(der: bytes) -> int:
    _MEMO[der] = len(der)
    return _MEMO[der]


def launch(executor, items):
    return [executor.submit(_worker_main, item) for item in items]


async def collect(queue):
    await asyncio.sleep(0.01)
    return await queue.get()


def dispatch_clean(executor, payload):
    return executor.submit(_worker_main, payload)


def read_all(path):
    with open(path, "rb") as handle:
        return handle.read()
