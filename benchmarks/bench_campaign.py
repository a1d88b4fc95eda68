"""The full RQ2 differential campaign as a paper artifact.

Runs the Section 3.2 generator sweep (compact character probe set by
default; set REPRO_CAMPAIGN_FULL=1 for the full U+0000..U+00FF + one
char per Unicode block sweep) across all nine parser profiles.
"""

import os

from repro.testgen.generator import sample_characters
from repro.tlslibs.campaign import run_campaign


def test_differential_campaign(write_output):
    chars = None
    if os.environ.get("REPRO_CAMPAIGN_FULL"):
        chars = sample_characters()
    report = run_campaign(chars=chars)
    totals = report.per_library()
    lines = [
        f"RQ2 differential campaign ({report.total_cases} test Unicerts)",
        f"{'Library':<22}{'Cases':>8}{'ParseFail':>11}{'SilentAcc':>11}{'Mismatch':>10}{'Anomalies':>11}",
    ]
    for library in sorted(totals):
        counts = totals[library]
        lines.append(
            f"{library:<22}{counts.cases:>8}{counts.parse_failures:>11}"
            f"{counts.silent_acceptances:>11}{counts.value_mismatches:>10}"
            f"{counts.anomalies:>11}"
        )
    lines.append("")
    lines.append(
        f"Libraries with anomalies: {len(report.libraries_with_anomalies())}/9 "
        "(paper: anomalies in all 9 tested libraries)"
    )
    write_output("campaign_rq2", lines)
    assert len(report.libraries_with_anomalies()) == 9
