"""Global switch for the memoized extraction layer.

The derived-view cache — :class:`~repro.x509.certificate.Certificate`
extension views — is identity-validated and therefore always safe, but
the reference oracle (:func:`repro.lint.reference.reference_run_lints`,
which the equivalence tests run) needs the *uncached* code path on the
very same objects.  :func:`caching_disabled` is that switch: while any
caller holds it, every view accessor recomputes from the underlying DER
and neither reads nor writes its memo.
:class:`~repro.x509.name.Name` keeps no memo: its accessors scan the
RDN list on every call, which costs less than validating a memo would.
The ``char_set`` of an attribute or general name is ``frozenset(value)``,
built on every read: the compiled lint masks settle nearly every row
before a check reads it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

_disable_depth = 0


def caching_enabled() -> bool:
    """True unless at least one :func:`caching_disabled` block is active."""
    return _disable_depth == 0


@contextlib.contextmanager
def caching_disabled() -> Iterator[None]:
    """Context manager that bypasses all derived-view caches.

    Re-entrant: nested blocks keep caching off until the outermost one
    exits.  Only the *reading and writing* of memos is suppressed; any
    values cached before entry remain stored and become visible again
    (after identity re-validation) once the block exits.
    """
    global _disable_depth
    _disable_depth += 1
    try:
        yield
    finally:
        _disable_depth -= 1
