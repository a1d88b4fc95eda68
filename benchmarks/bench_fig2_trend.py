"""Figure 2 — issuance trend of Unicerts and noncompliant Unicerts."""

from repro.analysis.longitudinal import issuance_trend
from repro.analysis.render import render_trend


def test_fig2_issuance_trend(corpus, reports, write_output):
    trend = issuance_trend(corpus, reports)
    lines = [
        "Figure 2: Issuance trend (per-year counts; paper plots log scale)",
        f"{'Year':<6}{'All':>8}{'Trusted':>9}{'Alive':>7}{'NC':>6}{'NCTrust':>9}{'NCAlive':>9}",
    ]
    for year in trend.years:
        lines.append(
            f"{year:<6}{trend.all_unicerts.counts.get(year, 0):>8}"
            f"{trend.trusted.counts.get(year, 0):>9}"
            f"{trend.alive.counts.get(year, 0):>7}"
            f"{trend.noncompliant.counts.get(year, 0):>6}"
            f"{trend.nc_trusted.counts.get(year, 0):>9}"
            f"{trend.nc_alive.counts.get(year, 0):>9}"
        )
    shares = trend.trusted_share_per_year()
    recent_shares = [f"{year}: {shares[year]:.1%}" for year in (2022, 2023, 2024) if year in shares]
    lines += ["", "Trusted share (paper: >97.2% each recent year): " + ", ".join(recent_shares)]
    lines += [""] + render_trend(trend)
    write_output("fig2_trend", lines)

    # Shape: strong growth of all/trusted lines; NC flat-to-declining
    # relative to total (compliance improves since 2015).
    early = sum(trend.all_unicerts.series(list(range(2012, 2016))))
    late = sum(trend.all_unicerts.series(list(range(2021, 2025))))
    assert late > 5 * early
    early_nc_rate = sum(trend.noncompliant.series([2013, 2014, 2015])) / max(
        sum(trend.all_unicerts.series([2013, 2014, 2015])), 1
    )
    late_nc_rate = sum(trend.noncompliant.series([2022, 2023, 2024])) / max(
        sum(trend.all_unicerts.series([2022, 2023, 2024])), 1
    )
    assert late_nc_rate < early_nc_rate
