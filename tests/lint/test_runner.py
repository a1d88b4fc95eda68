"""Tests for the lint runner aggregation (CorpusSummary, reports)."""

import datetime as dt

from repro.lint.framework import NoncomplianceType, REGISTRY
from repro.lint.runner import run_lints, summarize
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=141)
WHEN = dt.datetime(2024, 4, 1)


def clean():
    return (
        CertificateBuilder()
        .subject_cn("clean.example.com")
        .not_before(WHEN)
        .add_extension(subject_alt_name(GeneralName.dns("clean.example.com")))
        .sign(KEY)
    )


def dirty():
    return (
        CertificateBuilder()
        .subject_cn("bad\x00.example.com")
        .not_before(WHEN)
        .add_extension(subject_alt_name(GeneralName.dns("bad\x00.example.com")))
        .sign(KEY)
    )


class TestReports:
    def test_fired_lints_unique_per_report(self):
        report = run_lints(dirty())
        fired = report.fired_lints()
        assert len(fired) == len(set(fired))

    def test_types_classification(self):
        report = run_lints(dirty())
        assert NoncomplianceType.INVALID_CHARACTER in report.types()

    def test_error_and_warning_accessors(self):
        report = run_lints(dirty())
        assert report.has_error_level()
        assert all(r.status.value == "error" for r in report.errors)

    def test_subset_run(self):
        lint = REGISTRY.get("e_rfc_subject_dn_not_printable_characters")
        report = run_lints(dirty(), lints=[lint])
        assert report.fired_lints() == [lint.metadata.name]


class TestSummarize:
    def test_counts(self):
        reports = [run_lints(clean()), run_lints(dirty()), run_lints(dirty())]
        summary = summarize(reports)
        assert summary.total == 3
        assert summary.noncompliant == 2
        assert summary.noncompliant_ignoring_dates == 2

    def test_per_lint_counts_certs_not_findings(self):
        reports = [run_lints(dirty()), run_lints(dirty())]
        summary = summarize(reports)
        assert summary.per_lint["e_rfc_subject_dn_not_printable_characters"] == 2

    def test_per_type(self):
        summary = summarize([run_lints(dirty())])
        assert summary.per_type[NoncomplianceType.INVALID_CHARACTER] == 1

    def test_top_lints_ordering(self):
        summary = summarize([run_lints(dirty())] * 3 + [run_lints(clean())])
        ranked = summary.top_lints()
        counts = [count for _name, count in ranked]
        assert counts == sorted(counts, reverse=True)

    def test_error_warn_levels(self):
        summary = summarize([run_lints(dirty())])
        assert summary.error_level.get(NoncomplianceType.INVALID_CHARACTER) == 1
