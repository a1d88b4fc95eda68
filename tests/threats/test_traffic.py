"""Tests for the Section 6.2 traffic-obfuscation models."""

import datetime as dt

import pytest

from repro.asn1.strings import UTF8_STRING
from repro.asn1.oid import OID_ORGANIZATION_NAME
from repro.threats.traffic import (
    ALL_CLIENTS,
    ALL_MIDDLEBOXES,
    HTTPCLIENT,
    LIBCURL,
    REQUESTS,
    SNORT,
    SURICATA,
    URLLIB3,
    ZEEK,
    duplicate_position_evasion,
    evasion_experiment,
)
from repro.uni.variants import VariantStrategy
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=61)


def cert_with_org(org: str, cn: str = "c2.example.com"):
    return (
        CertificateBuilder()
        .subject_cn(cn)
        .subject_attr(OID_ORGANIZATION_NAME, org, UTF8_STRING)
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns(cn)))
        .sign(KEY)
    )


class TestMiddleboxExtraction:
    def test_three_engines(self):
        assert {m.name for m in ALL_MIDDLEBOXES} == {"Snort", "Suricata", "Zeek"}

    def test_exact_match_blocks(self):
        cert = cert_with_org("Evil Entity")
        for middlebox in ALL_MIDDLEBOXES:
            assert middlebox.matches_rule(cert, "Evil Entity"), middlebox.name

    def test_suricata_case_sensitive_bypass(self):
        # P2.1: Suricata's case-sensitive matching is bypassed by case
        # variants; Snort/Zeek match case-insensitively.
        cert = cert_with_org("EVIL ENTITY")
        assert not SURICATA.matches_rule(cert, "Evil Entity")
        assert SNORT.matches_rule(cert, "Evil Entity")

    def test_nul_byte_evades_all(self):
        cert = cert_with_org("Evil\x00 Entity")
        for middlebox in ALL_MIDDLEBOXES:
            assert not middlebox.matches_rule(cert, "Evil Entity"), middlebox.name

    def test_zeek_ignores_non_ia5_san(self):
        cert = (
            CertificateBuilder()
            .subject_cn("benign.example.net")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(
                subject_alt_name(GeneralName.dns("evil.example.com", spec=UTF8_STRING))
            )
            .sign(KEY)
        )
        # The SAN bytes are ASCII here, so craft a genuinely non-IA5 one.
        cert2 = (
            CertificateBuilder()
            .subject_cn("benign.example.net")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(
                subject_alt_name(GeneralName.dns("evil中.example.com", spec=UTF8_STRING))
            )
            .sign(KEY)
        )
        assert not ZEEK.matches_rule(cert2, "evil中.example.com")
        assert SNORT.matches_rule(cert2, "evil中.example.com")


class TestDuplicatePositionEvasion:
    def test_opposite_positions(self):
        outcome = duplicate_position_evasion("evil.example.com")
        assert outcome["snort_evaded_by_evil_last"]
        assert outcome["snort_catches_evil_first"]
        assert outcome["zeek_evaded_by_evil_first"]
        assert outcome["zeek_catches_evil_last"]


class TestVariantEvasion:
    def test_experiment_runs(self):
        results = evasion_experiment("Evil Entity Ltd")
        assert results

    def test_nonprintable_variant_evades_everything(self):
        results = evasion_experiment("Evil Entity Ltd")
        non_printable = [
            r for r in results if r.strategy is VariantStrategy.NON_PRINTABLE_ADDITION
        ]
        assert non_printable and all(r.evaded for r in non_printable)

    def test_case_variant_evades_only_suricata(self):
        results = evasion_experiment("Evil Entity Ltd")
        case_results = {
            r.middlebox: r.evaded
            for r in results
            if r.strategy is VariantStrategy.CASE_CONVERSION
        }
        assert case_results["Suricata"]
        assert not case_results["Snort"]
        assert not case_results["Zeek"]


class TestClientSANChecks:
    def test_four_clients(self):
        assert len(ALL_CLIENTS) == 4

    def test_urllib3_accepts_ulabel_san(self):
        # P2.2: urllib3 restricts SANs to Latin-1 without punycode checks.
        assert URLLIB3.accepts_san_value("münchen.de")
        assert REQUESTS.accepts_san_value("münchen.de")

    def test_urllib3_rejects_wide_unicode(self):
        assert not URLLIB3.accepts_san_value("中国.example.com")

    def test_libcurl_requires_ascii(self):
        assert not LIBCURL.accepts_san_value("münchen.de")
        assert LIBCURL.accepts_san_value("xn--mnchen-3ya.de")

    def test_libcurl_validates_punycode(self):
        assert not LIBCURL.accepts_san_value("xn--999999999.de")

    def test_httpclient_skips_punycode_validation(self):
        assert HTTPCLIENT.accepts_san_value("xn--999999999.de")
