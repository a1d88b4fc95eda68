"""Figure 4 — fields containing internationalized contents per issuer."""

from repro.analysis.artifacts import fig4_lines
from repro.analysis.fields import field_matrix


def test_fig4_field_matrix(corpus, reports, write_output):
    matrix = field_matrix(corpus, reports, min_certs=20)
    lines = fig4_lines(matrix)
    write_output("fig4_field_matrix", lines)

    assert matrix.issuers
    # Automated DV issuers put Unicode only in DNSNames.
    if "Let's Encrypt" in matrix.issuers:
        assert matrix.cell("Let's Encrypt", "DNSName").marker in (".", "+")
        assert matrix.cell("Let's Encrypt", "O").marker == " "
    # Regional enterprise CAs carry multilingual subject text.
    multilingual = [
        issuer
        for issuer in matrix.issuers
        if matrix.cell(issuer, "O").marker in (".", "+")
    ]
    assert multilingual
