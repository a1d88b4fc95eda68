"""Tests for the differential-testing campaign."""

import pytest

from repro.tlslibs.profiles import ALL_PROFILES, GNUTLS, GO_CRYPTO
from repro.tlslibs.campaign import run_campaign


@pytest.fixture(scope="module")
def report():
    # Compact character probe set keeps the test fast while covering
    # controls, Latin-1, CJK, bidi, and zero-width characters.
    return run_campaign()


class TestCampaign:
    def test_cases_generated(self, report):
        assert report.total_cases > 100

    def test_every_library_shows_anomalies(self, report):
        # The paper's RQ2 headline: anomalies in all 9 libraries.
        assert len(report.libraries_with_anomalies()) == 9

    def test_go_parse_failures_on_printable(self, report):
        # Go errors out on out-of-charset PrintableStrings; for the
        # *legal* chars it never fails.
        cell = report.cell("subject:CN", "PrintableString", "Golang Crypto")
        assert cell.cases > 0
        assert cell.parse_failures == 0  # failures counted only for legal chars

    def test_gnutls_silent_acceptance(self, report):
        # GnuTLS accepts out-of-charset characters in PrintableString.
        cell = report.cell("subject:CN", "PrintableString", "GnuTLS")
        assert cell.silent_acceptances > 0

    def test_mismatches_on_bmp(self, report):
        # BMPString cells diverge across libraries (UCS-2 vs ASCII-flat).
        mismatches = sum(
            counts.value_mismatches
            for (field, spec, _lib), counts in report.cells.items()
            if spec == "BMPString"
        )
        assert mismatches > 0

    def test_subset_campaign(self):
        report = run_campaign(profiles=[GNUTLS, GO_CRYPTO], chars=["a", "é", "中"], fields="subject")
        assert report.total_cases > 0
        assert set(lib for (_f, _s, lib) in report.cells) == {"GnuTLS", "Golang Crypto"}

    def test_per_library_aggregation(self, report):
        totals = report.per_library()
        assert len(totals) == 9
        assert all(counts.cases > 0 for counts in totals.values())
