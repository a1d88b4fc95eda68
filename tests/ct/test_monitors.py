"""Tests for the CT monitor behaviour models (Table 6)."""

import datetime as dt

import pytest

from repro.ct.monitors import ALL_MONITORS, MONITORS_BY_NAME
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=41)


def make_cert(cn: str, san: str | None = None):
    return (
        CertificateBuilder()
        .subject_cn(cn)
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns(san if san is not None else cn)))
        .sign(KEY)
    )


class TestRegistry:
    def test_five_monitors(self):
        assert len(ALL_MONITORS()) == 5

    def test_names(self):
        assert set(MONITORS_BY_NAME()) == {
            "Crt.sh",
            "SSLMate Spotter",
            "Facebook Monitor",
            "Entrust Search",
            "MerkleMap",
        }


class TestCaseInsensitivity:
    """P1.1: all monitors handle queries case-insensitively."""

    @pytest.mark.parametrize("name", list(MONITORS_BY_NAME()))
    def test_case_insensitive(self, name):
        monitor = MONITORS_BY_NAME()[name]
        monitor.submit(make_cert("Host.Example.COM"))
        assert monitor.search("host.example.com").matches


class TestFuzzySearch:
    """P1.2: missing fuzzy search misses slight variants."""

    def test_crtsh_fuzzy_finds_substring(self):
        monitor = MONITORS_BY_NAME()["Crt.sh"]
        monitor.submit(make_cert("sub.victim.example.com"))
        assert monitor.search("victim.example.com").matches

    def test_sslmate_exact_only(self):
        monitor = MONITORS_BY_NAME()["SSLMate Spotter"]
        monitor.submit(make_cert("sub.victim.example.com"))
        assert not monitor.search("victim.example.com").matches
        assert monitor.search("sub.victim.example.com").matches

    def test_merklemap_fuzzy(self):
        monitor = MONITORS_BY_NAME()["MerkleMap"]
        monitor.submit(make_cert("sub.victim.example.com"))
        assert monitor.search("victim").matches


class TestULabelChecks:
    """P1.3: only SSLMate and Facebook verify U-label legality."""

    DECEPTIVE = "xn--www-hn0a.example.com"  # decodes to LRM+www

    def test_sslmate_refuses(self):
        monitor = MONITORS_BY_NAME()["SSLMate Spotter"]
        result = monitor.search(self.DECEPTIVE)
        assert result.refused

    def test_facebook_refuses(self):
        monitor = MONITORS_BY_NAME()["Facebook Monitor"]
        assert monitor.search(self.DECEPTIVE).refused

    @pytest.mark.parametrize("name", ["Crt.sh", "Entrust Search", "MerkleMap"])
    def test_others_accept(self, name):
        monitor = MONITORS_BY_NAME()[name]
        monitor.submit(make_cert(self.DECEPTIVE))
        result = monitor.search(self.DECEPTIVE)
        assert not result.refused
        assert result.matches


class TestPunycodeHandling:
    def test_all_support_punycode_queries(self):
        for monitor in ALL_MONITORS():
            monitor.submit(make_cert("xn--mnchen-3ya.de"))
            assert monitor.search("xn--mnchen-3ya.de").matches, monitor.name

    def test_unicode_query_converted(self):
        monitor = MONITORS_BY_NAME()["Facebook Monitor"]
        monitor.submit(make_cert("xn--mnchen-3ya.de"))
        assert monitor.search("münchen.de").matches

    def test_entrust_no_punycode_cctld(self):
        monitor = MONITORS_BY_NAME()["Entrust Search"]
        domain = "shop.xn--p1ai"  # Cyrillic ccTLD .рф
        monitor.submit(make_cert(domain))
        result = monitor.search(domain)
        assert result.refused or not result.matches


class TestSpecialUnicodeIndexing:
    """P1.4: special characters disrupt some monitors' indexing."""

    def test_sslmate_cn_with_space_ignored(self):
        monitor = MONITORS_BY_NAME()["SSLMate Spotter"]
        monitor.submit(make_cert("evil name.example.com", san="other.example.com"))
        assert not monitor.search("evil name.example.com").matches

    def test_sslmate_cn_truncated_at_slash(self):
        monitor = MONITORS_BY_NAME()["SSLMate Spotter"]
        monitor.submit(make_cert("victim.com/path", san="other.example.com"))
        assert monitor.search("victim.com").matches
        assert not monitor.search("victim.com/path").matches

    def test_sslmate_drops_control_chars(self):
        monitor = MONITORS_BY_NAME()["SSLMate Spotter"]
        monitor.submit(make_cert("evil\x00entity.com", san="evil\x00entity.com"))
        assert not monitor.search("evil\x00entity.com").matches

    def test_crtsh_indexes_control_chars(self):
        monitor = MONITORS_BY_NAME()["Crt.sh"]
        monitor.submit(make_cert("evil\x00entity.com", san="evil\x00entity.com"))
        assert monitor.search("evil\x00entity.com").matches


class TestLogSync:
    def test_sync_filters_precerts(self):
        from repro.ct.log import CTLog

        log = CTLog()
        pre = (
            CertificateBuilder()
            .subject_cn("pre.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .precertificate()
            .sign(KEY)
        )
        final = make_cert("final.example.com")
        log.submit(pre)
        log.submit(final)
        monitor = MONITORS_BY_NAME()["Crt.sh"]
        indexed = monitor.sync_from_log(log)
        assert indexed == 1
        assert monitor.search("final.example.com").matches
        assert not monitor.search("pre.example.com").matches

    def test_sync_can_include_precerts(self):
        from repro.ct.log import CTLog

        log = CTLog()
        pre = (
            CertificateBuilder()
            .subject_cn("pre.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .precertificate()
            .sign(KEY)
        )
        log.submit(pre)
        monitor = MONITORS_BY_NAME()["Crt.sh"]
        assert monitor.sync_from_log(log, include_precerts=True) == 1
