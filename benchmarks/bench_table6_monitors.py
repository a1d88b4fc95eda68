"""Table 6 — CT monitor tolerance matrix, plus the Section 6.1
monitor-misleading experiment."""

from repro.threats.monitor_misleading import (
    concealment_matrix,
    run_experiment,
    TABLE6_COLUMNS,
    derive_monitor_matrix,
)

_HEADERS = {
    "case_insensitive": "CaseIns",
    "unicode_search": "UniSrch",
    "fuzzy_search": "Fuzzy",
    "ulabel_check": "ULblChk",
    "punycode_idn": "PunyIDN",
    "punycode_idn_cctld": "ccTLD",
    "fails_special_unicode": "FailUni",
}


def test_table6_monitor_matrix(write_output):
    matrix = derive_monitor_matrix()
    lines = [
        "Table 6: Unicert tolerance among CT monitors (derived by probing)",
        f"{'Monitor':<20}" + "".join(f"{_HEADERS[c]:>9}" for c in TABLE6_COLUMNS),
    ]
    for monitor, features in matrix.items():
        lines.append(
            f"{monitor:<20}"
            + "".join(f"{'yes' if features[c] else 'no':>9}" for c in TABLE6_COLUMNS)
        )
    write_output("table6_monitors", lines)

    assert all(f["case_insensitive"] for f in matrix.values())  # P1.1
    assert not any(f["unicode_search"] for f in matrix.values())
    assert matrix["SSLMate Spotter"]["ulabel_check"]  # P1.3
    assert not matrix["Entrust Search"]["punycode_idn_cctld"]
    assert matrix["SSLMate Spotter"]["fails_special_unicode"]  # P1.4


def test_section61_monitor_misleading(write_output):
    results = run_experiment("victim.example.com")
    matrix = concealment_matrix(results)
    monitors = sorted({r.monitor for r in results})
    lines = [
        "Section 6.1: concealment of forged certificates per monitor",
        f"{'Technique':<22}" + "".join(f"{m[:14]:>16}" for m in monitors),
    ]
    for technique, row in matrix.items():
        lines.append(
            f"{technique:<22}"
            + "".join(f"{'CONCEALED' if row[m] else 'found':>16}" for m in monitors)
        )
    write_output("section61_concealment", lines)

    assert not any(matrix["case_variation"].values())  # P1.1 control
    assert matrix["nul_in_cn"]["SSLMate Spotter"]  # P1.4
    assert matrix["subdomain_variant"]["Facebook Monitor"]  # P1.2
    for monitor in monitors:
        assert any(matrix[t][monitor] for t in matrix), monitor
