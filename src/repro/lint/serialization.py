"""JSON-friendly serialization of lint reports (the released-tool
output format, mirroring Zlint's ``zlint -pretty`` result objects)."""

from __future__ import annotations

import json
from typing import Any

from ..x509.certificate import Certificate
from .framework import LintResult, LintStatus, NoncomplianceType
from .runner import CertificateReport, CorpusSummary


def result_to_dict(result: LintResult) -> dict[str, Any]:
    """One lint result as a JSON-serializable dict."""
    meta = result.lint
    return {
        "lint": meta.name,
        "status": result.status.value,
        "details": result.details,
        "severity": meta.severity.value,
        "type": meta.nc_type.value,
        "new": meta.new,
        "source": meta.source.value,
        "citation": meta.citation,
        "effective_date": meta.effective_date.date().isoformat(),
    }


def report_to_dict(
    report: CertificateReport,
    cert: Certificate | None = None,
    include_passes: bool = False,
) -> dict[str, Any]:
    """One certificate's results as a JSON-serializable dict."""
    payload: dict[str, Any] = {
        "noncompliant": report.noncompliant,
        "noncompliant_ignoring_effective_dates": report.noncompliant_ignoring_dates,
        "findings": [result_to_dict(r) for r in report.findings],
        "suppressed_by_effective_date": [
            result_to_dict(r) for r in report.suppressed_by_effective_date
        ],
    }
    if include_passes:
        payload["passes"] = [
            r.lint.name for r in report.results if r.status is LintStatus.PASS
        ]
    if cert is not None:
        payload["certificate"] = {
            "subject": cert.subject.rfc4514_string(),
            "issuer": cert.issuer.rfc4514_string(),
            "serial": cert.serial,
            "not_before": cert.not_before.isoformat(),
            "not_after": cert.not_after.isoformat(),
            "fingerprint_sha256": cert.fingerprint(),
        }
    return payload


def report_to_json(
    report: CertificateReport,
    cert: Certificate | None = None,
    indent: int | None = 2,
) -> str:
    """Serialize a certificate report (optionally with cert info) to JSON."""
    return json.dumps(
        report_to_dict(report, cert), indent=indent, ensure_ascii=False, sort_keys=True
    )


def render_text_report(report: CertificateReport, cert: Certificate) -> str:
    """One certificate's report as the ``repro lint`` human-readable text.

    Byte-identical to the historical single-file output (the format the
    service parity tests compare against).
    """
    lines = [
        f"subject: {cert.subject.rfc4514_string()}",
        f"issuer:  {cert.issuer.rfc4514_string()}",
        f"validity: {cert.not_before.date()} .. {cert.not_after.date()}",
    ]
    if not report.findings:
        lines.append("compliant: no findings")
        return "\n".join(lines)
    lines.append(f"{len(report.findings)} finding(s):")
    for result in report.findings:
        lines.append(f"  [{result.status.value.upper():5}] {result.lint.name}")
        if result.details:
            lines.append(f"          {result.details}")
        lines.append(f"          {result.lint.citation}")
    return "\n".join(lines)


def summary_to_dict(summary: CorpusSummary) -> dict[str, Any]:
    """A corpus summary as a JSON-serializable dict."""
    return {
        "total": summary.total,
        "noncompliant": summary.noncompliant,
        "noncompliant_ignoring_effective_dates": summary.noncompliant_ignoring_dates,
        "per_lint": dict(sorted(summary.per_lint.items())),
        "per_type": {t.value: n for t, n in sorted(summary.per_type.items(), key=lambda kv: kv[0].value)},
        "error_level": {t.value: n for t, n in sorted(summary.error_level.items(), key=lambda kv: kv[0].value)},
        "warn_level": {t.value: n for t, n in sorted(summary.warn_level.items(), key=lambda kv: kv[0].value)},
    }


def summary_from_dict(payload: dict[str, Any]) -> CorpusSummary:
    """Rebuild a :class:`CorpusSummary` from :func:`summary_to_dict` output.

    The inverse the incremental engine's checkpoint needs: a summary
    that round-trips through ``summary_from_dict(summary_to_dict(s))``
    is structurally identical to ``s`` — same counters, same canonical
    key order — so a resumed window serializes byte-identically to one
    that never left memory.  Unknown noncompliance-type values raise
    ``ValueError`` (a checkpoint written by a future registry must not
    half-load).
    """

    def _typed(block: dict[str, int]) -> dict[NoncomplianceType, int]:
        return {
            NoncomplianceType(value): count
            for value, count in sorted(block.items())
        }

    summary = CorpusSummary(
        total=int(payload["total"]),
        noncompliant=int(payload["noncompliant"]),
        noncompliant_ignoring_dates=int(
            payload["noncompliant_ignoring_effective_dates"]
        ),
        per_lint=dict(sorted(payload["per_lint"].items())),
        per_type=_typed(payload["per_type"]),
        error_level=_typed(payload["error_level"]),
        warn_level=_typed(payload["warn_level"]),
    )
    summary._canonicalize()
    return summary


def summary_to_json(summary: CorpusSummary, indent: int | None = None) -> str:
    """Canonical JSON form of a summary (stable key order).

    Two summaries over the same corpus serialize byte-identically here
    regardless of how the corpus was sharded — this is the form the
    determinism tests and the parallel benchmark compare.
    """
    return json.dumps(
        summary_to_dict(summary), indent=indent, ensure_ascii=False, sort_keys=True
    )
