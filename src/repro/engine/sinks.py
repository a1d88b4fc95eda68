"""Sink stage: turn lint results into each entry point's output shape.

The sinks cover the repo's surfaces, all byte-compatible with the
pre-engine code paths they replaced:

* :func:`repro.lint.serialization.report_to_json` — the
  ``python -m repro lint --json`` document (also the service response
  body, which appends the trailing newline ``print()`` would have
  added);
* :func:`render_text_report` — the human CLI report lines;
* :func:`merge_shard_results` — the exact :class:`CorpusSummary` merge
  over per-shard results (Tables 1/11 aggregation), preserving corpus
  order for collected reports.
"""

from __future__ import annotations

from typing import Iterable

from ..lint.parallel import ParallelLintOutcome, ShardResult
from ..lint.runner import CertificateReport, CorpusSummary
from ..x509.certificate import Certificate


def render_text_report(report: CertificateReport, cert: Certificate) -> list[str]:
    """One certificate's report as the CLI's human-readable lines.

    Byte-identical to the historical ``repro lint`` output (the
    single-file format the service parity tests compare against).
    """
    lines = [
        f"subject: {cert.subject.rfc4514_string()}",
        f"issuer:  {cert.issuer.rfc4514_string()}",
        f"validity: {cert.not_before.date()} .. {cert.not_after.date()}",
    ]
    if not report.findings:
        lines.append("compliant: no findings")
        return lines
    lines.append(f"{len(report.findings)} finding(s):")
    for result in report.findings:
        lines.append(f"  [{result.status.value.upper():5}] {result.lint.name}")
        if result.details:
            lines.append(f"          {result.details}")
        lines.append(f"          {result.lint.citation}")
    return lines


def merge_shard_results(
    results: Iterable[ShardResult], jobs: int, collect_reports: bool = False
) -> ParallelLintOutcome:
    """Fold per-shard results into one exact corpus outcome.

    Results are re-ordered by shard index before merging, so streaming
    completion order (``as_completed``) never leaks into the output —
    the merge algebra plus this canonical ordering is what makes
    ``--jobs N`` byte-identical to ``--jobs 1``.
    """
    ordered = sorted(results, key=lambda r: r.index)
    summary = CorpusSummary.merged(r.summary for r in ordered)
    reports: list[CertificateReport] | None = None
    if collect_reports:
        reports = []
        for shard in ordered:
            reports.extend(shard.reports or [])
    return ParallelLintOutcome(
        summary=summary, reports=reports, jobs=jobs, shards=len(ordered)
    )
