"""Planted violations for the staticcheck self-tests.

Each checker group must fire on this module *exactly once*:

1. cache-safety — ``_mutating_check`` appends to the memoized
   ``cert.san.names`` view;
2. exception-hygiene — ``_sloppy_parse`` uses a bare ``except:``;
3. determinism — ``_jittered_check`` calls ``random.random()``.

The checkers read this module as source; keep each violation unique.
"""

import random


def _mutating_check(cert):
    names = cert.san.names
    names.append(None)  # Violation 1: writes through the shared view.
    return True, ""


def _sloppy_parse(data):
    try:
        return int(data)
    except:  # noqa: E722 — Violation 2: planted bare except.
        return None


def _jittered_check(cert):
    return random.random() > 0.5, ""  # Violation 3: nondeterministic.
