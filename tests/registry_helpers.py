"""Test helper: register a lint in the package-wide registry for a block."""

import contextlib

from repro.lint.framework import REGISTRY


@contextlib.contextmanager
def registered(lint):
    """Register ``lint`` in :data:`repro.lint.framework.REGISTRY` for the block.

    The registry has no unregister call (production registers only at
    import), so the exit path drops the entry and rebuilds the snapshot
    by hand.  The snapshot is then a new tuple over the original lints,
    which :func:`repro.lint.framework.index_for` maps back to their original
    index and plan while that index is still memoized.
    """
    REGISTRY.register(lint)
    try:
        yield lint
    finally:
        REGISTRY._lints.pop(lint.metadata.name)
        REGISTRY._snapshot = tuple(REGISTRY._lints.values())
