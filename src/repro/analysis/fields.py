"""Figure 4 (field × issuer matrix) and Table 3 (subject variants)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1.oid import OID_ORGANIZATION_NAME
from ..ct.corpus import Corpus
from ..engine.windows import _lint_field, cert_facts
from ..lint import CertificateReport
from ..uni import VariantStrategy, classify_variant_pair

#: The Figure 4 field columns we track.
FIELD_COLUMNS = ("DNSName", "CN", "O", "OU", "L", "ST", "CertificatePolicies")


@dataclass
class FieldCell:
    """One (issuer, field) cell: Unicode presence and deviations."""

    unicode_count: int = 0
    deviating_count: int = 0

    @property
    def marker(self) -> str:
        """Figure 4 glyphs: '+' deviating, '.' unicode, ' ' neither."""
        if self.deviating_count:
            return "+"
        if self.unicode_count:
            return "."
        return " "


@dataclass
class FieldMatrix:
    """The Figure 4 matrix."""

    cells: dict[tuple[str, str], FieldCell] = field(default_factory=dict)
    issuers: list[str] = field(default_factory=list)

    def cell(self, issuer: str, column: str) -> FieldCell:
        key = (issuer, column)
        if key not in self.cells:
            self.cells[key] = FieldCell()
        return self.cells[key]


def field_matrix(
    corpus: Corpus,
    reports: list[CertificateReport],
    min_certs: int = 20,
) -> FieldMatrix:
    """Build the Figure 4 matrix for issuers above ``min_certs``."""
    counts: dict[str, int] = {}
    for record in corpus.records:
        counts[record.issuer_org] = counts.get(record.issuer_org, 0) + 1
    matrix = FieldMatrix(
        issuers=[org for org, n in sorted(counts.items(), key=lambda kv: -kv[1]) if n >= min_certs]
    )
    keep = set(matrix.issuers)
    for record, report in zip(corpus.records, reports):
        if record.issuer_org not in keep:
            continue
        unicode_fields = cert_facts(record.certificate).unicode_fields
        deviating_fields = {
            _lint_field(result.lint.name) for result in report.findings
        }
        for column in FIELD_COLUMNS:
            if column in unicode_fields:
                matrix.cell(record.issuer_org, column).unicode_count += 1
            if column in deviating_fields:
                matrix.cell(record.issuer_org, column).deviating_count += 1
    return matrix


# ---------------------------------------------------------------------------
# Table 3: subject value variants
# ---------------------------------------------------------------------------


@dataclass
class VariantPair:
    """Two Subject values judged identity-equivalent but different."""

    a: str
    b: str
    strategy: VariantStrategy


def find_subject_variants(corpus: Corpus, max_pairs: int = 200) -> list[VariantPair]:
    """Scan Subject O values for Table 3-style variant pairs.

    Values are bucketed by confusable skeleton so only plausible pairs
    are compared (quadratic comparison stays inside a bucket).
    """
    from ..uni import canonical_whitespace, skeleton

    buckets: dict[str, set[str]] = {}
    for record in corpus.records:
        for value in record.certificate.subject.get(OID_ORGANIZATION_NAME):
            key = skeleton(canonical_whitespace(value.replace("�", "")))
            buckets.setdefault(key, set()).add(value)
    pairs: list[VariantPair] = []
    for values in buckets.values():
        ordered = sorted(values)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                strategy = classify_variant_pair(a, b)
                if strategy is not None:
                    pairs.append(VariantPair(a, b, strategy))
                    if len(pairs) >= max_pairs:
                        return pairs
    return pairs


def variant_strategy_counts(pairs: list[VariantPair]) -> dict[VariantStrategy, int]:
    """Tally variant pairs per Table 3 strategy."""
    counts: dict[VariantStrategy, int] = {}
    for pair in pairs:
        counts[pair.strategy] = counts.get(pair.strategy, 0) + 1
    return counts
