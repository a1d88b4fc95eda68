"""Violation-free twin of ``bad_lints`` for the negative tests.

Every pattern here is the *repaired* form of a planted violation: the
lint is registered, the cached view is copied before mutation, the
except clause is narrow, and nothing consults randomness or the clock.
Every checker must report zero findings on this module.
"""

import datetime as dt

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


def _check_sorted_copy(cert):
    names = sorted(cert.san.names, key=lambda gn: gn.value)
    names.append(None)  # fine: ``sorted`` built a fresh list
    return bool(names), ""


REGISTERED = FIXTURE_REGISTRY.register(
    FunctionLint(
        LintMetadata(name="e_fixture_registered", severity=Severity.ERROR, **_META),
        lambda cert: cert.san is not None,
        _check_sorted_copy,
    )
)


def _careful_parse(data):
    try:
        return int(data)
    except ValueError:
        return None
