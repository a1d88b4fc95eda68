"""Figure 3 — CDF of Unicert validity period by certificate class."""

from repro.analysis.longitudinal import validity_cdfs
from repro.analysis.render import render_cdf

LANDMARKS = [90, 180, 365, 398, 700, 1000]


def test_fig3_validity_cdf(corpus, reports, write_output):
    curves = validity_cdfs(corpus, reports)
    lines = [
        "Figure 3: CDF of validity period (days)",
        f"{'Days':<8}" + "".join(f"{label:>14}" for label in ("all", "idn", "other", "noncompliant")),
    ]
    for day in LANDMARKS:
        lines.append(
            f"{day:<8}"
            + "".join(f"{curves[key].cdf_at(day):>13.1%}" for key in ("all", "idn", "other", "noncompliant"))
        )
    lines += [
        "",
        f"IDNCerts at 90 days: {curves['idn'].cdf_at(90):.1%} (paper: 89.6%)",
        f"Other Unicerts beyond 398 days: {1 - curves['other'].cdf_at(398):.1%} (paper: >10.7%)",
        f"Noncompliant at >=365 days: {1 - curves['noncompliant'].cdf_at(364):.1%} (paper: ~50%)",
        f"Noncompliant beyond 700 days: {1 - curves['noncompliant'].cdf_at(700):.1%} (paper: >20%)",
    ]
    lines += [""] + render_cdf(curves)
    write_output("fig3_validity_cdf", lines)

    assert curves["idn"].cdf_at(90) > 0.8
    assert 1 - curves["other"].cdf_at(398) > 0.05
    assert 1 - curves["noncompliant"].cdf_at(364) > 0.35
    assert 1 - curves["noncompliant"].cdf_at(700) > 0.10
    # The NC curve lies to the right of (below) the IDN curve.
    for day in (90, 365):
        assert curves["noncompliant"].cdf_at(day) < curves["idn"].cdf_at(day)
