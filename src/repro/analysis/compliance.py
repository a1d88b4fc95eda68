"""Table 1 / Table 11 / Section 4.3 headline computations.

All functions consume a :class:`~repro.ct.corpus.Corpus` plus the lint
reports produced by :func:`repro.lint.runner.run_lints` — i.e. measured
results, never the generator's ground truth.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from ..ct.corpus import ANALYSIS_DATE, Corpus, CorpusRecord, TrustStatus
from ..lint.framework import NoncomplianceType, REGISTRY, LintStatus
from ..lint.runner import CertificateReport, CorpusSummary


def lint_corpus(corpus: Corpus, jobs: int | None = 1, stats=None) -> list[CertificateReport]:
    """Run the full lint registry over every corpus record.

    Routes through the staged :mod:`repro.engine` pipeline: ``jobs=1``
    (the default, preserving the historical signature) runs the serial
    reference executor in-process; ``jobs=None`` (all CPUs) or
    ``jobs > 1`` fans out over worker processes.  Reports come back in
    corpus order either way and are identical across job counts.  Pass
    ``stats`` (an :class:`repro.engine.stats.EngineStats`) to observe
    the run's per-stage breakdown.
    """
    from ..engine.pipeline import run_corpus
    from ..lint.parallel import ShardOutput

    return run_corpus(corpus, jobs, stats=stats, output=ShardOutput.REPORTS).reports


def summarize_corpus(corpus: Corpus, jobs: int | None = None) -> CorpusSummary:
    """Merged corpus summary via the sharded pipeline (all CPUs by
    default); exact for every job count."""
    from ..engine.pipeline import run_corpus

    return run_corpus(corpus, jobs).summary


@dataclass
class TaxonomyRow:
    """One row of Table 1."""

    nc_type: NoncomplianceType
    lints_total: int = 0
    lints_new: int = 0
    nc_lints_total: int = 0
    nc_lints_new: int = 0
    nc_certs: int = 0
    nc_certs_new_lints: int = 0
    error_level: int = 0
    warning_level: int = 0
    trusted: int = 0
    recent: int = 0
    alive: int = 0

    @property
    def trusted_share(self) -> float:
        return self.trusted / self.nc_certs if self.nc_certs else 0.0


@dataclass
class Table1:
    """The full Table 1: per-type rows plus the All row."""

    rows: dict[NoncomplianceType, TaxonomyRow] = field(default_factory=dict)
    total_certs: int = 0
    nc_certs: int = 0
    nc_certs_ignoring_dates: int = 0
    nc_trusted: int = 0
    nc_limited: int = 0
    nc_recent: int = 0
    nc_alive: int = 0
    nc_error_level: int = 0
    nc_warning_level: int = 0

    @property
    def nc_rate(self) -> float:
        return self.nc_certs / self.total_certs if self.total_certs else 0.0

    @property
    def trusted_share(self) -> float:
        return self.nc_trusted / self.nc_certs if self.nc_certs else 0.0

    @property
    def limited_share(self) -> float:
        return self.nc_limited / self.nc_certs if self.nc_certs else 0.0


def build_table1(corpus: Corpus, reports: list[CertificateReport]) -> Table1:
    """Compute Table 1 from lint reports."""
    table = Table1(total_certs=len(corpus.records))
    for nc_type in NoncomplianceType:
        lints = REGISTRY.by_type(nc_type)
        table.rows[nc_type] = TaxonomyRow(
            nc_type=nc_type,
            lints_total=len(lints),
            lints_new=sum(1 for l in lints if l.metadata.new),
        )
    fired_lint_names: dict[str, set[NoncomplianceType]] = {}
    for record, report in zip(corpus.records, reports):
        if report.noncompliant_ignoring_dates:
            table.nc_certs_ignoring_dates += 1
        if not report.noncompliant:
            continue
        table.nc_certs += 1
        if record.issuance_trust is TrustStatus.PUBLIC:
            table.nc_trusted += 1
        elif record.issuance_trust is TrustStatus.LIMITED:
            table.nc_limited += 1
        if record.recent:
            table.nc_recent += 1
        if record.alive:
            table.nc_alive += 1
        if report.has_error_level():
            table.nc_error_level += 1
        if report.has_warning_level():
            table.nc_warning_level += 1
        fired_types: set[NoncomplianceType] = set()
        fired_new_types: set[NoncomplianceType] = set()
        error_types: set[NoncomplianceType] = set()
        warn_types: set[NoncomplianceType] = set()
        for result in report.findings:
            meta = result.lint
            fired_lint_names.setdefault(meta.name, set()).add(meta.nc_type)
            fired_types.add(meta.nc_type)
            if meta.new:
                fired_new_types.add(meta.nc_type)
            if result.status is LintStatus.ERROR:
                error_types.add(meta.nc_type)
            else:
                warn_types.add(meta.nc_type)
        for nc_type in fired_types:
            table.rows[nc_type].nc_certs += 1
        for nc_type in fired_new_types:
            table.rows[nc_type].nc_certs_new_lints += 1
        for nc_type in error_types:
            table.rows[nc_type].error_level += 1
        for nc_type in warn_types:
            table.rows[nc_type].warning_level += 1
        for nc_type in fired_types:
            row = table.rows[nc_type]
            if record.issuance_trust is TrustStatus.PUBLIC:
                row.trusted += 1
            if record.recent:
                row.recent += 1
            if record.alive:
                row.alive += 1
    for name, types in fired_lint_names.items():
        meta = REGISTRY.get(name).metadata
        for nc_type in types:
            table.rows[nc_type].nc_lints_total += 1
            if meta.new:
                table.rows[nc_type].nc_lints_new += 1
    return table


def top_lints(reports: list[CertificateReport], count: int = 25) -> list[tuple[str, int]]:
    """Table 11: lints ranked by the number of NC certs they flag."""
    counts: dict[str, int] = {}
    for report in reports:
        for name in set(report.fired_lints()):
            counts[name] = counts.get(name, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:count]


@dataclass
class EncodingErrorAnalysis:
    """Section 5.1's impact measurement."""

    total: int = 0
    trusted_chain: int = 0
    in_subject: int = 0
    in_san: int = 0
    in_certificate_policies: int = 0


def encoding_error_analysis(corpus: Corpus) -> EncodingErrorAnalysis:
    """Find certs whose declared string types cannot decode their bytes,
    then rebuild chains via AIA and check which verify to trusted roots."""
    from ..x509.verify import build_chain, ChainError

    analysis = EncodingErrorAnalysis()
    pool = corpus.ca_pool()
    for record in corpus.records:
        cert = record.certificate
        fields: list[str] = []
        if any(not attr.decode_ok for attr in cert.subject.attributes()):
            fields.append("subject")
        san = cert.san
        if san is not None and any(not gn.decode_ok for gn in san.names):
            fields.append("san")
        policies = cert.policies
        if policies is not None and any(not ok for _t, _x, ok in policies.explicit_texts):
            fields.append("cp")
        if not fields:
            continue
        analysis.total += 1
        analysis.in_subject += "subject" in fields
        analysis.in_san += "san" in fields
        analysis.in_certificate_policies += "cp" in fields
        try:
            chain = build_chain(cert, pool)
        except ChainError:
            continue
        if chain[-1].fingerprint() in corpus.trust_anchors:
            analysis.trusted_chain += 1
    return analysis


@dataclass
class IssuerInvolvement:
    """Section 4.3.2: how many organizations produced NC Unicerts."""

    total_orgs: int = 0
    nc_orgs: int = 0
    trusted_nc_orgs: int = 0


def issuer_involvement(
    corpus: Corpus, reports: list[CertificateReport]
) -> IssuerInvolvement:
    """Count organizations overall / with NC certs / trusted with NC."""
    orgs: set[str] = set()
    nc_orgs: set[str] = set()
    trusted_nc_orgs: set[str] = set()
    for record, report in zip(corpus.records, reports):
        orgs.add(record.issuer_org)
        if report.noncompliant:
            nc_orgs.add(record.issuer_org)
            if record.issuance_trust is TrustStatus.PUBLIC:
                trusted_nc_orgs.add(record.issuer_org)
    return IssuerInvolvement(
        total_orgs=len(orgs),
        nc_orgs=len(nc_orgs),
        trusted_nc_orgs=len(trusted_nc_orgs),
    )
