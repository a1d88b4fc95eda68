"""Table 2: issuer organizations ranked by noncompliant Unicerts."""

from __future__ import annotations

from dataclasses import dataclass

from ..ct.corpus import Corpus, TrustStatus
from ..lint.runner import CertificateReport


@dataclass
class IssuerRow:
    """One row of Table 2."""

    org: str
    current_trust: TrustStatus
    region: str
    total: int = 0
    noncompliant: int = 0
    recent_noncompliant: int = 0

    @property
    def nc_rate(self) -> float:
        return self.noncompliant / self.total if self.total else 0.0

    @property
    def trust_marker(self) -> str:
        return {
            TrustStatus.PUBLIC: "public",
            TrustStatus.LIMITED: "limited",
            TrustStatus.NONE: "untrusted",
        }[self.current_trust]


def issuer_table(
    corpus: Corpus,
    reports: list[CertificateReport],
    top: int = 10,
) -> tuple[list[IssuerRow], IssuerRow]:
    """Rank organizations by NC count; return (top rows, Other/Total)."""
    rows: dict[str, IssuerRow] = {}
    for record, report in zip(corpus.records, reports):
        row = rows.get(record.issuer_org)
        if row is None:
            row = rows[record.issuer_org] = IssuerRow(
                org=record.issuer_org,
                current_trust=record.current_trust,
                region=record.region,
            )
        row.total += 1
        if report.noncompliant:
            row.noncompliant += 1
            if record.recent:
                row.recent_noncompliant += 1
    ranked = sorted(rows.values(), key=lambda r: (-r.noncompliant, r.org))
    head = ranked[:top]
    tail = ranked[top:]
    other = IssuerRow(org="Other", current_trust=TrustStatus.NONE, region="-")
    for row in tail:
        other.total += row.total
        other.noncompliant += row.noncompliant
        other.recent_noncompliant += row.recent_noncompliant
    return head, other


def top_volume_share(corpus: Corpus, top: int = 10) -> float:
    """Section 4.2: the Unicert volume share of the top-N issuers."""
    counts: dict[str, int] = {}
    for record in corpus.records:
        counts[record.issuer_org] = counts.get(record.issuer_org, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    return sum(ranked[:top]) / len(corpus.records) if corpus.records else 0.0


def high_nc_rate_issuers(
    corpus: Corpus,
    reports: list[CertificateReport],
    threshold: float = 0.8,
    min_certs: int = 5,
) -> list[IssuerRow]:
    """Issuers with systemic problems (>80% NC in the paper)."""
    head, _other = issuer_table(corpus, reports, top=10_000)
    return [
        row for row in head if row.total >= min_certs and row.nc_rate >= threshold
    ]
