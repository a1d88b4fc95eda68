"""Table 11 — top lints ranked by noncompliant Unicerts flagged."""

from repro.analysis.artifacts import table11_lines
from repro.analysis.compliance import top_lints
from repro.lint.framework import REGISTRY


def test_table11_top_lints(corpus, reports, write_output):
    ranked = top_lints(reports, 25)
    lines = table11_lines(ranked)
    write_output("table11_top_lints", lines)

    names = [name for name, _count in ranked]
    # The paper's two dominant lints top the ranking in either order.
    assert set(names[:2]) == {
        "w_rfc_ext_cp_explicit_text_not_utf8",
        "w_cab_subject_common_name_not_in_san",
    }
    # The flagship new lint is high in the ranking.
    assert "e_rfc_dns_idn_a2u_unpermitted_unichar" in names[:8]
    # A healthy share of the firing lints are the paper's new ones.
    new_count = sum(1 for name in names if REGISTRY.get(name).metadata.new)
    assert new_count >= 5
