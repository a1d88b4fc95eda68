"""Global switch for the memoized extraction layer.

The derived-view caches — :class:`~repro.x509.certificate.Certificate`
extension views and the ``char_set`` of
:class:`~repro.x509.name.AttributeTypeAndValue` and
:class:`~repro.x509.general_name.GeneralName` — are identity-validated
and therefore always safe — but the reference oracle
(:func:`repro.lint.reference.reference_run_lints`, which the
equivalence tests and the benchmark's "before" leg run) needs the
*uncached* code path on the very same objects.  :func:`caching_disabled`
is that switch: while any caller holds it, every accessor recomputes from the
underlying DER/attribute state and neither reads nor writes its memo.
:class:`~repro.x509.name.Name` keeps no memo: its accessors scan the
RDN list on every call, which costs less than validating a memo would.
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


#: Corpus-wide ``value -> frozenset(value)`` memo behind
#: :func:`interned_char_set`.  Soft-capped so a pathological corpus of
#: unique values cannot grow it unboundedly.
_CHAR_SETS: dict[str, frozenset] = {}
_CHAR_SET_MEMO_MAX = 1 << 20


def interned_char_set(value: str) -> frozenset:
    """The interned ``frozenset(value)`` for a string value.

    Attribute and GeneralName values repeat heavily across a corpus
    (issuer DNs especially: the same ``O``/``C``/``CN`` strings appear
    on millions of certificates), so their char-class sets are interned
    corpus-wide rather than rebuilt per object.  Two objects holding
    equal value strings share one frozenset; per-object caches layered
    on top keep the hit an attribute load.  Honors
    :func:`caching_disabled` (recomputes, neither reads nor writes).
    """
    if not caching_enabled():
        return frozenset(value)
    charset = _CHAR_SETS.get(value)
    if charset is None:
        charset = frozenset(value)
        if len(_CHAR_SETS) < _CHAR_SET_MEMO_MAX:
            _CHAR_SETS[value] = charset
    return charset
