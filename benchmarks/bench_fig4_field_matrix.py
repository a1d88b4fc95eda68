"""Figure 4 — fields containing internationalized contents per issuer."""

from repro.analysis.fields import field_matrix
from repro.engine.windows import FIELD_COLUMNS


def test_fig4_field_matrix(corpus, reports, write_output):
    matrix = field_matrix(corpus, reports, min_certs=20)
    lines = [
        "Figure 4: internationalized content per (issuer, field)",
        "Legend: '.' Unicode content, '+' deviation from standards, ' ' neither",
        f"{'Issuer':<34}" + "".join(f"{col[:10]:>12}" for col in FIELD_COLUMNS),
    ]
    for issuer in matrix.issuers[:15]:
        lines.append(
            f"{issuer[:33]:<34}"
            + "".join(f"{matrix.cell(issuer, col).marker:>12}" for col in FIELD_COLUMNS)
        )
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
