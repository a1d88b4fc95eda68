"""Table 1 — noncompliance taxonomy over the calibrated corpus.

Regenerates the paper's headline issuance-compliance results: per-type
lint counts, NC Unicert counts, error/warning splits, trusted/recent/
alive shares, the 0.72% overall NC rate, the 65.3% trusted share, and
the footnote-4 effective-date gap.
"""

from repro.analysis.artifacts import table1_lines
from repro.analysis.compliance import build_table1, encoding_error_analysis, issuer_involvement
from repro.lint.framework import NoncomplianceType

#: Paper reference values (shares of all NC Unicerts) for the shape check.
PAPER_TYPE_SHARES = {
    NoncomplianceType.INVALID_CHARACTER: 0.173,
    NoncomplianceType.INVALID_ENCODING: 0.605,
    NoncomplianceType.INVALID_STRUCTURE: 0.376,
    NoncomplianceType.ILLEGAL_FORMAT: 0.013,
}


def test_table1_taxonomy(corpus, reports, write_output):
    table = build_table1(corpus, reports)

    lines = table1_lines(corpus, table)
    write_output("table1_taxonomy", lines)

    # Shape assertions: who dominates and by roughly what factor.
    enc = table.rows[NoncomplianceType.INVALID_ENCODING].nc_certs
    struct = table.rows[NoncomplianceType.INVALID_STRUCTURE].nc_certs
    chars = table.rows[NoncomplianceType.INVALID_CHARACTER].nc_certs
    norm = table.rows[NoncomplianceType.BAD_NORMALIZATION].nc_certs
    assert enc > struct
    assert enc == max(row.nc_certs for row in table.rows.values())
    assert norm == 3
    if table.total_certs >= 10_000:
        # The full ordering needs enough samples per class.
        assert struct > chars > norm
    assert 0.003 < table.nc_rate < 0.02
    assert table.trusted_share > 0.5
    assert table.nc_certs_ignoring_dates > 3 * table.nc_certs


def test_section43_issuer_involvement(corpus, reports, write_output):
    stats = issuer_involvement(corpus, reports)
    write_output(
        "section43_issuers",
        [
            f"Issuer organizations in corpus: {stats.total_orgs} (paper: 698)",
            f"Organizations with NC Unicerts: {stats.nc_orgs} (paper: 505)",
            f"Trusted organizations with NC: {stats.trusted_nc_orgs} (paper: 78 CCADB owners)",
        ],
    )
    assert 0 < stats.nc_orgs <= stats.total_orgs


def test_section51_encoding_errors(corpus, write_output):
    analysis = encoding_error_analysis(corpus)
    write_output(
        "section51_encoding_errors",
        [
            f"Certs with ASN.1 encoding errors: {analysis.total} (paper: 7,415)",
            f"  verified to trusted roots via AIA: {analysis.trusted_chain} (paper: 5,772)",
            f"  errors in Subject: {analysis.in_subject} (paper: 150)",
            f"  errors in SAN: {analysis.in_san} (paper: 110)",
            f"  errors in CertificatePolicies: {analysis.in_certificate_policies} (paper: 5,575)",
        ],
    )
    assert analysis.in_certificate_policies >= analysis.in_subject
    assert analysis.trusted_chain <= analysis.total
