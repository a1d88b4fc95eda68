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

from repro.analysis.artifacts import (
    ablation_effective_dates,
    ablation_new_lints,
    ablation_severity,
)


def test_ablation_new_lints(corpus, write_output):
    lines, (nc_full, detected_by_new, unique_new) = ablation_new_lints(corpus)
    write_output("ablation_new_lints", lines)
    share = detected_by_new / nc_full if nc_full else 0
    assert 0 < detected_by_new <= nc_full
    assert unique_new > 0  # the new rules catch cases nothing else does
    assert 0.1 < share < 0.8


def test_ablation_effective_dates(corpus, write_output):
    lines, (gated, ungated) = ablation_effective_dates(corpus)
    write_output("ablation_effective_dates", lines)
    assert ungated > 3 * gated


def test_ablation_severity(corpus, write_output):
    lines, (any_finding, error_only) = ablation_severity(corpus)
    write_output("ablation_severity", lines)
    assert 0 < error_only <= any_finding
