"""Table 4 — decoding methods for DN and GN across the 9 TLS libraries.

The matrix is *re-derived* by the Section 3.2 inference engine from
parser outputs over generated test bytes; the profiles' configuration
is never read directly.
"""

from repro.tlslibs.base import DecodePractice
from repro.tlslibs.differential import TABLE4_SCENARIOS, derive_decoding_matrix
from repro.tlslibs.profiles import ALL_PROFILES

LEGEND = "O = compliant, T = over-tolerant, X = incompatible, M = modified, - = unsupported"


def test_table4_decoding_matrix(write_output):
    matrix = derive_decoding_matrix(ALL_PROFILES)
    libraries = [profile.name for profile in ALL_PROFILES]
    lines = [
        "Table 4: Decoding methods for DN and GN (inferred)",
        LEGEND,
        f"{'Scenario':<26}" + "".join(f"{lib[:12]:>14}" for lib in libraries),
    ]
    for label, _tag, _context in TABLE4_SCENARIOS:
        cells = []
        for lib in libraries:
            result = matrix.cell(label, lib)
            cells.append(f"{result.label[:12]:>13}{result.practice.symbol}")
        lines.append(f"{label:<26}" + "".join(cells))
    write_output("table4_decoding", lines)

    # Headline shape checks (Section 5.1's named findings).
    assert matrix.cell("UTF8String in Name", "Forge").practice is DecodePractice.INCOMPATIBLE
    assert matrix.cell("PrintableString in Name", "GnuTLS").practice is DecodePractice.OVER_TOLERANT
    assert matrix.cell("PrintableString in Name", "OpenSSL").practice is DecodePractice.MODIFIED
    assert matrix.cell("BMPString in Name", "GnuTLS").practice is DecodePractice.OVER_TOLERANT
    assert matrix.cell("PrintableString in Name", "Golang Crypto").practice is DecodePractice.COMPLIANT
    # Every library deviates somewhere.
    for lib in libraries:
        deviations = [
            matrix.cell(label, lib).practice
            for label, _t, _c in TABLE4_SCENARIOS
            if matrix.cell(label, lib).practice
            in (DecodePractice.OVER_TOLERANT, DecodePractice.INCOMPATIBLE, DecodePractice.MODIFIED)
        ]
        if lib not in ("Golang Crypto", "Node.js Crypto"):
            assert deviations, lib
