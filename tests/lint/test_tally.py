"""``CorpusSummary.add`` folds a one-scan :class:`ReportTally`.

The reference below is the three-scan ``add`` the tally replaced
(``noncompliant``, ``noncompliant_ignoring_dates`` and ``findings`` each
filter ``report.results``).  Both must build the same counters in the
same key order, report by report, and the windowed fold must map the
same findings to the same Figure 4 columns.
"""

import pytest

from repro.analysis.fields import _lint_field
from repro.ct.corpus import CorpusGenerator
from repro.engine.windows import WindowStats, deviating_columns
from repro.lint.runner import CertificateReport, CorpusSummary, run_lints, tally
from repro.lint.framework import LintStatus


def reference_add(summary: CorpusSummary, report: CertificateReport) -> None:
    summary.total += 1
    if report.noncompliant:
        summary.noncompliant += 1
    if report.noncompliant_ignoring_dates:
        summary.noncompliant_ignoring_dates += 1
    names, types, errors, warns = set(), set(), set(), set()
    for result in report.findings:
        names.add(result.lint.name)
        types.add(result.lint.nc_type)
        if result.status is LintStatus.ERROR:
            errors.add(result.lint.nc_type)
        else:
            warns.add(result.lint.nc_type)
    by_value = lambda t: t.value  # noqa: E731
    for name in sorted(names):
        summary.per_lint[name] = summary.per_lint.get(name, 0) + 1
    for target, keys in (
        (summary.per_type, types),
        (summary.error_level, errors),
        (summary.warn_level, warns),
    ):
        for key in sorted(keys, key=by_value):
            target[key] = target.get(key, 0) + 1


def ordered(summary: CorpusSummary):
    return (
        summary.total,
        summary.noncompliant,
        summary.noncompliant_ignoring_dates,
        list(summary.per_lint.items()),
        list(summary.per_type.items()),
        list(summary.error_level.items()),
        list(summary.warn_level.items()),
    )


@pytest.fixture(scope="module")
def reports():
    corpus = CorpusGenerator(seed=11, scale=1 / 200_000).generate()
    return [
        run_lints(record.certificate, issued_at=record.issued_at)
        for record in corpus.records
    ]


def test_corpus_has_every_kind_of_report(reports):
    assert any(not report.findings and report.suppressed_by_effective_date for report in reports)
    assert any(report.errors for report in reports)
    assert any(report.warnings for report in reports)
    assert any(not report.noncompliant_ignoring_dates for report in reports)


def test_add_matches_the_three_scan_reference(reports):
    fast, slow = CorpusSummary(), CorpusSummary()
    for report in reports:
        fast.add(report)
        reference_add(slow, report)
        assert ordered(fast) == ordered(slow)


def test_deviating_columns_match_the_findings(reports):
    for report in reports:
        expected = sorted({_lint_field(r.lint.name) for r in report.findings})
        assert list(deviating_columns(tally(report))) == expected


def test_window_fold_matches_the_summary_add(reports):
    window, summary = WindowStats(), CorpusSummary()
    for index, report in enumerate(reports):
        counts = tally(report)
        window.fold(index, counts, deviating_columns(counts))
        summary.add(report)
    assert ordered(window.summary) == ordered(summary)
    assert (window.first_index, window.last_index) == (0, len(reports) - 1)
