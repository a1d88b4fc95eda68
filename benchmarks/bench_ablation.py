"""Ablation benches for the design choices DESIGN.md calls out.

1. **New-lint ablation** — detection with all 95 lints versus only the
   pre-existing 45: what share of noncompliance do the paper's 50 new
   lints uniquely contribute?  (Paper: 83.1K of 249.3K, 33.3%, detected
   by new lints.)
2. **Effective-date ablation** — findings with and without effective-
   date gating (the paper's footnote-4 gap).
3. **Severity ablation** — error-level-only versus full findings
   (MUST vs MUST+SHOULD coverage).
"""

from repro.lint.framework import REGISTRY
from repro.lint.runner import run_lints


def test_ablation_new_lints(corpus, write_output):
    old_lints = [l for l in REGISTRY.all() if not l.metadata.new]
    new_lints = [l for l in REGISTRY.all() if l.metadata.new]

    old_names = {l.metadata.name for l in old_lints}
    new_names = {l.metadata.name for l in new_lints}

    nc_full = detected_by_new = unique_new = 0
    for record in corpus.records:
        report = run_lints(record.certificate, issued_at=record.issued_at)
        if not report.noncompliant:
            continue
        nc_full += 1
        fired = set(report.fired_lints())
        if fired & new_names:
            detected_by_new += 1
            if not fired & old_names:
                # Invisible to pre-existing linters entirely.
                unique_new += 1
    share = detected_by_new / nc_full if nc_full else 0
    unique_share = unique_new / nc_full if nc_full else 0
    write_output(
        "ablation_new_lints",
        [
            "Ablation: contribution of the 50 new lints",
            f"NC Unicerts (full registry): {nc_full}",
            f"NC with >=1 new-lint finding: {detected_by_new} ({share:.1%}; paper: 33.3%)",
            f"NC invisible to pre-existing lints: {unique_new} ({unique_share:.1%})",
        ],
    )
    assert 0 < detected_by_new <= nc_full
    assert unique_new > 0  # the new rules catch cases nothing else does
    assert 0.1 < share < 0.8


def test_ablation_effective_dates(corpus, write_output):
    gated = ungated = 0
    for record in corpus.records:
        with_dates = run_lints(record.certificate, issued_at=record.issued_at)
        without_dates = run_lints(
            record.certificate,
            issued_at=record.issued_at,
            respect_effective_dates=False,
        )
        gated += with_dates.noncompliant
        ungated += without_dates.noncompliant
    write_output(
        "ablation_effective_dates",
        [
            "Ablation: effective-date gating",
            f"NC with effective dates: {gated}",
            f"NC without: {ungated} ({ungated / max(gated, 1):.1f}x; paper: 249.3K -> 1.8M, 7.2x)",
        ],
    )
    assert ungated > 3 * gated


def test_ablation_severity(corpus, write_output):
    any_finding = error_only = 0
    for record in corpus.records:
        report = run_lints(record.certificate, issued_at=record.issued_at)
        if report.noncompliant:
            any_finding += 1
            if report.has_error_level():
                error_only += 1
    write_output(
        "ablation_severity",
        [
            "Ablation: severity levels",
            f"NC at any level: {any_finding}",
            f"NC with error-level findings: {error_only} "
            f"({error_only / max(any_finding, 1):.1%}; paper: 73.8% error-level)",
        ],
    )
    assert 0 < error_only <= any_finding
