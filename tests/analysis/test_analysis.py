"""Tests for the table/figure analysis computations (tiny-scale corpus)."""

import pytest

from repro.analysis.compliance import (
    build_table1,
    encoding_error_analysis,
    issuer_involvement,
    lint_corpus,
    top_lints,
)
from repro.analysis.fields import field_matrix, find_subject_variants, variant_strategy_counts
from repro.analysis.issuers import issuer_table, top_volume_share
from repro.analysis.longitudinal import issuance_trend, validity_cdfs
from repro.ct.corpus import CorpusGenerator
from repro.lint.framework import NoncomplianceType

SCALE = 1 / 10000


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=11, scale=SCALE).generate()


@pytest.fixture(scope="module")
def reports(corpus):
    return lint_corpus(corpus)


class TestTable1:
    def test_lint_counts_match_registry(self, corpus, reports):
        table = build_table1(corpus, reports)
        row = table.rows[NoncomplianceType.INVALID_ENCODING]
        assert row.lints_total == 48
        assert row.lints_new == 37

    def test_nc_rate_in_paper_band(self, corpus, reports):
        table = build_table1(corpus, reports)
        assert 0.002 < table.nc_rate < 0.025  # paper: 0.72%

    def test_encoding_dominates(self, corpus, reports):
        table = build_table1(corpus, reports)
        enc = table.rows[NoncomplianceType.INVALID_ENCODING].nc_certs
        norm = table.rows[NoncomplianceType.BAD_NORMALIZATION].nc_certs
        assert enc > norm
        assert enc >= max(
            table.rows[t].nc_certs
            for t in (
                NoncomplianceType.ILLEGAL_FORMAT,
                NoncomplianceType.DISCOURAGED_FIELD,
            )
        )

    def test_bad_normalization_is_three(self, corpus, reports):
        table = build_table1(corpus, reports)
        assert table.rows[NoncomplianceType.BAD_NORMALIZATION].nc_certs == 3

    def test_ignoring_dates_grows(self, corpus, reports):
        table = build_table1(corpus, reports)
        assert table.nc_certs_ignoring_dates > 2 * table.nc_certs

    def test_trusted_share_majority(self, corpus, reports):
        table = build_table1(corpus, reports)
        assert table.trusted_share > 0.4  # paper: 65.3%


class TestTable11:
    def test_ranked_descending(self, reports):
        ranked = top_lints(reports)
        counts = [count for _name, count in ranked]
        assert counts == sorted(counts, reverse=True)

    def test_headline_lints_present(self, reports):
        names = {name for name, _count in top_lints(reports, count=30)}
        assert "w_rfc_ext_cp_explicit_text_not_utf8" in names
        assert "w_cab_subject_common_name_not_in_san" in names


class TestEncodingErrors:
    def test_section51_analysis(self, corpus):
        analysis = encoding_error_analysis(corpus)
        assert analysis.total >= 1
        # CertificatePolicies dominates, as in the paper (5,575 of 7,415).
        assert analysis.in_certificate_policies >= analysis.in_subject
        # Chains reconstruct via AIA; the trusted subset is a subset.
        assert 0 < analysis.trusted_chain <= analysis.total

    def test_subject_encoding_errors_detectable(self):
        # The 150-count subject class rounds to zero at tiny scales, so
        # verify the detector directly on a corpus known to contain one.
        from repro.ct.corpus import CorpusGenerator as CG

        generator = CG(seed=5, scale=1 / 10000)
        corpus = generator.generate()
        spec = next(s for s in __import__("repro.ct.corpus", fromlist=["ISSUERS"]).ISSUERS)
        builder, _idn, _fields = generator._defect_builder(
            "asn1_undecodable_subject", spec, generator._rng
        )
        cert, _when = generator._finalize(builder, spec, 2020, False, True)
        assert any(not attr.decode_ok for attr in cert.subject.attributes())


class TestIssuerTable:
    def test_top10_and_other(self, corpus, reports):
        head, other = issuer_table(corpus, reports)
        assert len(head) <= 10
        assert head[0].noncompliant >= head[-1].noncompliant
        assert other.org == "Other"

    def test_volume_share(self, corpus):
        share = top_volume_share(corpus)
        assert share > 0.85  # paper: 97.6%

    def test_involvement(self, corpus, reports):
        stats = issuer_involvement(corpus, reports)
        assert 0 < stats.nc_orgs <= stats.total_orgs


class TestTrend:
    def test_growth(self, corpus, reports):
        trend = issuance_trend(corpus, reports)
        early = sum(trend.all_unicerts.series(list(range(2012, 2016))))
        late = sum(trend.all_unicerts.series(list(range(2021, 2025))))
        assert late > early

    def test_trusted_tracks_all(self, corpus, reports):
        trend = issuance_trend(corpus, reports)
        shares = trend.trusted_share_per_year()
        recent = [shares[y] for y in (2022, 2023, 2024) if y in shares]
        assert recent and min(recent) > 0.8  # paper: >97.2% recent years

    def test_nc_line_below_all(self, corpus, reports):
        trend = issuance_trend(corpus, reports)
        for year in trend.years:
            assert trend.noncompliant.counts.get(year, 0) <= trend.all_unicerts.counts.get(year, 0)


class TestValidityCDF:
    def test_idn_mostly_90_days(self, corpus, reports):
        curves = validity_cdfs(corpus, reports)
        assert curves["idn"].cdf_at(90) > 0.8  # paper: 89.6%

    def test_noncompliant_longer(self, corpus, reports):
        curves = validity_cdfs(corpus, reports)
        assert curves["noncompliant"].cdf_at(365) < curves["idn"].cdf_at(365)

    def test_other_unicerts_exceed_398(self, corpus, reports):
        curves = validity_cdfs(corpus, reports)
        assert curves["other"].cdf_at(398) < 1.0  # >10.7% exceed 398d

    def test_percentile_monotone(self, corpus, reports):
        curves = validity_cdfs(corpus, reports)
        curve = curves["all"]
        assert curve.percentile(0.25) <= curve.percentile(0.75)


class TestFieldMatrix:
    def test_matrix_builds(self, corpus, reports):
        matrix = field_matrix(corpus, reports, min_certs=10)
        assert matrix.issuers

    def test_idn_only_issuers_have_dns_unicode(self, corpus, reports):
        matrix = field_matrix(corpus, reports, min_certs=10)
        if "Let's Encrypt" in matrix.issuers:
            cell = matrix.cell("Let's Encrypt", "DNSName")
            assert cell.unicode_count > 0

    def test_markers(self, corpus, reports):
        matrix = field_matrix(corpus, reports, min_certs=10)
        markers = {matrix.cell(issuer, col).marker for issuer in matrix.issuers for col in ("DNSName", "O")}
        assert markers & {".", "+"}


class TestVariants:
    def test_variant_pairs_found(self, corpus):
        pairs = find_subject_variants(corpus)
        # The corpus plants whitespace and replacement-char variants of
        # the shared organization pool, so pairs must surface.
        assert pairs

    def test_strategy_counts(self, corpus):
        counts = variant_strategy_counts(find_subject_variants(corpus))
        assert sum(counts.values()) > 0
