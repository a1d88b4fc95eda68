"""``ProcessMemo``: the one bounded memo type for process-wide caches.

Every memo a lint worker can write — the compiled-kernel mask memos,
the plan's live-row and template memos, the registry index memo, the
worker's open substrate readers — is a :class:`ProcessMemo`.  It is a
plain ``dict`` with an entry cap: hits are ``dict.get``/``[]`` and run
no Python code, and a store into a full memo flushes it first, so a
long-running process that has seen more than ``cap`` distinct keys
keeps caching the keys it sees next instead of freezing.

A memo is per process by contract: a forked worker inherits the
parent's entries and then diverges, which is safe because an entry may
only change speed, never an answer.  The process-state test
(``tests/lint/test_process_state.py``) rests on this type: it drives
the worker entry points and fails if any container held by a module
global, other than a ``ProcessMemo``, changed.  Only
``memo[key] = value`` is bounded; ``setdefault``/``update`` bypass the
cap and are not used on memos.
"""

from __future__ import annotations


class ProcessMemo(dict):
    """A ``dict`` holding at most ``cap`` entries, flushed whole when full.

    ``on_evict`` (optional) is called once per value whenever entries
    leave by a flush or :meth:`clear` — an open store gets closed there.
    """

    __slots__ = ("cap", "on_evict")

    def __init__(self, cap: int, on_evict=None):
        super().__init__()
        self.cap = cap
        self.on_evict = on_evict

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.cap and key not in self:
            self.clear()
        dict.__setitem__(self, key, value)

    def clear(self) -> None:
        values = list(self.values()) if self.on_evict is not None else ()
        dict.clear(self)
        for value in values:
            self.on_evict(value)
