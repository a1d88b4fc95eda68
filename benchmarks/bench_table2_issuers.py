"""Table 2 — top-10 issuer organizations by noncompliant Unicerts."""

from repro.analysis.issuers import high_nc_rate_issuers, issuer_table, top_volume_share


def test_table2_issuer_ranking(corpus, reports, write_output):
    head, other = issuer_table(corpus, reports)
    lines = [
        "Table 2: Top issuer organizations by noncompliant Unicerts",
        f"{'Organization':<34}{'Trust':>10}{'Region':>8}{'NC':>7}{'Rate':>9}{'Recent':>8}",
    ]
    for row in head:
        lines.append(
            f"{row.org[:33]:<34}{row.trust_marker:>10}{row.region:>8}"
            f"{row.noncompliant:>7}{row.nc_rate:>8.2%}{row.recent_noncompliant:>8}"
        )
    lines.append(
        f"{'Other':<34}{'-':>10}{'-':>8}{other.noncompliant:>7}"
        f"{other.nc_rate:>8.2%}{other.recent_noncompliant:>8}"
    )
    total_nc = sum(r.noncompliant for r in head) + other.noncompliant
    lines += [
        "",
        f"Total NC: {total_nc}",
        f"Top-10 Unicert volume share: {top_volume_share(corpus):.1%} (paper: 97.6%)",
    ]
    systemic = high_nc_rate_issuers(corpus, reports)
    lines.append(
        "Issuers with >80% NC rate (systemic issues): "
        + (", ".join(r.org for r in systemic) or "none at this scale")
    )
    write_output("table2_issuers", lines)

    # Shape: NC spread across many organizations, no oligopoly; the
    # highest-volume issuers have low NC rates.
    assert len(head) == 10
    assert other.noncompliant > 0  # the long tail exists
    assert top_volume_share(corpus) > 0.9
