"""Table 14 — browser certificate visualization / spoofing matrix."""

from repro.threats.spoofing import (
    TABLE14_COLUMNS,
    chrome_warning_spoof_demo,
    derive_browser_matrix,
)

_HEADERS = {
    "c0_c1_visible": "C0/C1vis",
    "layout_controls_visible": "LayoutVis",
    "homograph_feasible": "Homograph",
    "incorrect_substitution": "BadSubst",
    "flawed_asn1_range_check": "NoRangeChk",
    "warning_spoof_feasible": "WarnSpoof",
}


def test_table14_browser_matrix(write_output):
    matrix = derive_browser_matrix()
    lines = [
        "Table 14: Certificate visualization and spoofing issues (derived)",
        f"{'Browser':<18}" + "".join(f"{_HEADERS[c]:>11}" for c in TABLE14_COLUMNS),
    ]
    for browser, results in matrix.items():
        lines.append(
            f"{browser:<18}"
            + "".join(f"{'yes' if results[c] else 'no':>11}" for c in TABLE14_COLUMNS)
        )
    crafted, displayed = chrome_warning_spoof_demo()
    lines += [
        "",
        f"Figure 7 demo: CN {crafted!r} renders as {displayed!r}",
    ]
    write_output("table14_browsers", lines)

    assert displayed == "www.paypal.com"
    assert not any(r["layout_controls_visible"] for r in matrix.values())  # G1.1
    assert all(r["homograph_feasible"] for r in matrix.values())  # G1.2
    assert matrix["Chromium-based"]["warning_spoof_feasible"]  # G1.3
    assert not matrix["Safari"]["warning_spoof_feasible"]
