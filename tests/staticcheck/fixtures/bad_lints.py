"""Planted violations for the staticcheck self-tests.

Each checker group must fire on this module *exactly once*:

1. registry-invariants (AST half) — ``ORPHAN`` is a ``FunctionLint``
   never passed to a registry ``register()`` call;
2. cache-safety — ``_mutating_check`` appends to the memoized
   ``cert.san.names`` view;
3. exception-hygiene — ``_sloppy_parse`` uses a bare ``except:``;
4. determinism — ``_jittered_check`` calls ``random.random()``.

The module is imported by the tests (to hand its registered lint to
the registry checkers) and scanned as source by the AST checkers; keep
it importable and keep each violation unique.
"""

import datetime as dt
import random

from repro.lint.framework import (
    FunctionLint,
    LintMetadata,
    LintRegistry,
    NoncomplianceType,
    Severity,
    Source,
)

FIXTURE_REGISTRY = LintRegistry()

_META = dict(
    description="fixture",
    citation="fixture citation",
    source=Source.RFC5280,
    nc_type=NoncomplianceType.INVALID_STRUCTURE,
    effective_date=dt.datetime(2019, 1, 1),
)


def _check_ok(cert):
    return True, ""


REGISTERED = FIXTURE_REGISTRY.register(
    FunctionLint(
        LintMetadata(name="e_fixture_registered", severity=Severity.ERROR, **_META),
        lambda cert: True,
        _check_ok,
    )
)

# Violation 1: constructed but never registered.
ORPHAN = FunctionLint(
    LintMetadata(name="e_fixture_orphan", severity=Severity.ERROR, **_META),
    lambda cert: True,
    _check_ok,
)


def _mutating_check(cert):
    names = cert.san.names
    names.append(None)  # Violation 2: writes through the shared view.
    return True, ""


def _sloppy_parse(data):
    try:
        return int(data)
    except:  # noqa: E722 — Violation 3: planted bare except.
        return None


def _jittered_check(cert):
    return random.random() > 0.5, ""  # Violation 4: nondeterministic.
