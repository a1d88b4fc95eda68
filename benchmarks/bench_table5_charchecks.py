"""Table 5 — standard violations in parsing DN and GN (character checks
and escaping), derived by black-box probing of the 9 library models."""

from repro.tlslibs.differential import Violation, derive_charcheck_report
from repro.tlslibs.profiles import ALL_PROFILES

ROWS = [
    "PrintableString Violations",
    "IA5String Violations",
    "BMPString Violations",
    "Illegal chars in GN",
    "DN RFC2253 Violations",
    "DN RFC4514 Violations",
    "DN RFC1779 Violations",
    "GN RFC2253 Violations",
    "GN RFC4514 Violations",
    "GN RFC1779 Violations",
]

LEGEND = "O = no violation, V = unexploited violation, X = exploited violation, - = not tested"


def test_table5_character_checks(write_output):
    report = derive_charcheck_report(ALL_PROFILES)
    libraries = [profile.name for profile in ALL_PROFILES]
    lines = [
        "Table 5: Standard violations in parsing DN and GN (derived)",
        LEGEND,
        f"{'Violation':<30}" + "".join(f"{lib[:10]:>12}" for lib in libraries),
    ]
    for row in ROWS:
        lines.append(
            f"{row:<30}" + "".join(f"{report.cell(row, lib):>12}" for lib in libraries)
        )
    write_output("table5_charchecks", lines)

    # Paper's named results.
    assert report.cell("DN RFC4514 Violations", "OpenSSL") == Violation.EXPLOITED
    assert report.cell("GN RFC4514 Violations", "PyOpenSSL") == Violation.EXPLOITED
    assert report.cell("GN RFC4514 Violations", "Node.js Crypto") == Violation.UNEXPLOITED
    # "None of the libraries enforced checks for illegal characters
    # among all ASN.1 string types": every library has >= 1 violation.
    for lib in libraries:
        cells = [report.cell(row, lib) for row in ROWS]
        assert any(c in (Violation.UNEXPLOITED, Violation.EXPLOITED) for c in cells), lib
