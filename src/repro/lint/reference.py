"""The reference lint path: the oracle production dispatch must match.

:func:`reference_run_lints` runs every lint's own ``applies()`` and
``check()`` in registration order, with every derived-view cache of
:mod:`repro.x509` switched off — no family signature or scope masks,
no :class:`~repro.lint.framework.RegistryIndex` scheduling, no compiled
plan.  It is slow on purpose: the equivalence tests and benchmarks
compare :func:`repro.lint.runner.run_lints` against it report for
report.  Nothing under ``src/repro`` imports this module.
"""

from __future__ import annotations

import datetime as _dt
from typing import Sequence

from ..x509.certificate import Certificate
from ..x509.cache import caching_disabled
from .framework import REGISTRY, Lint, LintStatus
from .runner import CertificateReport


def reference_run_lints(
    cert: Certificate,
    issued_at: _dt.datetime | None = None,
    lints: Sequence[Lint] | None = None,
    respect_effective_dates: bool = True,
) -> CertificateReport:
    """Run every lint (or a subset) one by one, caches disabled.

    Same arguments and the same report as
    :func:`repro.lint.runner.run_lints`, minus the prebuilt ``index``.
    """
    selected = tuple(lints) if lints is not None else REGISTRY.snapshot()
    report = CertificateReport()
    with caching_disabled():
        for lint in selected:
            result = lint.run(
                cert,
                issued_at=issued_at,
                respect_effective_date=respect_effective_dates,
            )
            if result.status is not LintStatus.NA:
                report.results.append(result)
    return report
