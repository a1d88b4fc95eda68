"""Tests for the nine TLS-library behaviour models."""

import datetime as dt

import pytest

from repro.asn1.strings import BMP_STRING
from repro.asn1.tags import UniversalTag
from repro.tlslibs.profiles import (
    ALL_PROFILES,
    CRYPTOGRAPHY,
    FORGE,
    GNUTLS,
    GO_CRYPTO,
    JAVA_SECURITY_CERT,
    NODEJS_CRYPTO,
    OPENSSL,
    PROFILES_BY_NAME,
    PYOPENSSL,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import crl_distribution_points, subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=21)
WHEN = dt.datetime(2024, 1, 1)


class TestRegistry:
    def test_nine_profiles(self):
        assert len(ALL_PROFILES) == 9
        assert len(PROFILES_BY_NAME) == 9

    def test_paper_names(self):
        expected = {
            "OpenSSL",
            "GnuTLS",
            "PyOpenSSL",
            "Cryptography",
            "Golang Crypto",
            "Java.security.cert",
            "BouncyCastle",
            "Node.js Crypto",
            "Forge",
        }
        assert set(PROFILES_BY_NAME) == expected


class TestHeadlineBehaviours:
    """The specific quirks the paper calls out by name."""

    def test_forge_utf8_as_latin1(self):
        # "Forge decodes UTF8String with ISO-8859-1".
        raw = "Störi".encode("utf-8")
        outcome = FORGE.decode_dn_attribute(UniversalTag.UTF8_STRING, raw)
        assert outcome.ok
        assert outcome.text == "StÃ¶ri"  # mojibake, as the paper shows

    def test_gnutls_printable_as_utf8(self):
        # "GnuTLS decodes PrintableString with UTF-8".
        raw = "中国".encode("utf-8")
        outcome = GNUTLS.decode_dn_attribute(UniversalTag.PRINTABLE_STRING, raw)
        assert outcome.ok
        assert outcome.text == "中国"

    def test_openssl_hex_escapes(self):
        # OpenSSL's modified decoding: \xHH escape sequences.
        outcome = OPENSSL.decode_dn_attribute(
            UniversalTag.PRINTABLE_STRING, b"test\xff.com"
        )
        assert outcome.ok
        assert outcome.text == "test\\xff.com"

    def test_java_bmp_ascii_compatible(self):
        # Java's BMPString output is ASCII-compatible (incompatible decode).
        raw = BMP_STRING.encode("杩瑨畢攮据")
        outcome = JAVA_SECURITY_CERT.decode_dn_attribute(UniversalTag.BMP_STRING, raw)
        assert outcome.ok
        assert outcome.text == "githube.cn"

    def test_java_replaces_non_ascii_with_fffd(self):
        outcome = JAVA_SECURITY_CERT.decode_dn_attribute(
            UniversalTag.PRINTABLE_STRING, b"caf\xe9"
        )
        assert outcome.text == "caf�"

    def test_go_printable_parse_failure(self):
        # The Section 5.1 availability failure.
        outcome = GO_CRYPTO.decode_dn_attribute(UniversalTag.PRINTABLE_STRING, b"bad@char")
        assert not outcome.ok
        assert "PrintableString contains invalid character" in outcome.error

    def test_pyopenssl_crldp_dot_replacement(self):
        # "http://ssl\x01test.com" -> "http://ssl.test.com".
        outcome = PYOPENSSL.decode_gn(b"http://ssl\x01test.com", context="crldp")
        assert outcome.ok
        assert outcome.text == "http://ssl.test.com"

    def test_pyopenssl_plain_gn_keeps_controls(self):
        outcome = PYOPENSSL.decode_gn(b"http://ssl\x01test.com", context="san")
        assert outcome.text == "http://ssl\x01test.com"


class TestDuplicateCN:
    def _dup_cert(self):
        return (
            CertificateBuilder()
            .subject_cn("first.example.com")
            .subject_cn("last.example.com")
            .not_before(WHEN)
            .sign(KEY)
        )

    def test_pyopenssl_first(self):
        # Paper 4.3.1: PyOpenSSL selects the first CN.
        assert PYOPENSSL.common_name(self._dup_cert()) == "first.example.com"

    def test_go_last(self):
        # Paper 4.3.1: Go Crypto uses the last CN.
        assert GO_CRYPTO.common_name(self._dup_cert()) == "last.example.com"

    def test_no_cn(self):
        cert = (
            CertificateBuilder()
            .subject_attr(
                __import__("repro.asn1.oid", fromlist=["OID_ORGANIZATION_NAME"]).OID_ORGANIZATION_NAME,
                "No CN Here",
            )
            .not_before(WHEN)
            .sign(KEY)
        )
        assert GO_CRYPTO.common_name(cert) is None


class TestCRLUrls:
    def test_pyopenssl_revocation_subversion(self):
        # Full pipeline: crafted CRLDP parses to a *different* URL.
        cert = (
            CertificateBuilder()
            .subject_cn("evil.example.com")
            .not_before(WHEN)
            .add_extension(crl_distribution_points("http://ssl\x01test.com"))
            .sign(KEY)
        )
        assert PYOPENSSL.crl_urls(cert) == ["http://ssl.test.com"]

    def test_gnutls_keeps_url(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(crl_distribution_points("http://crl.example.com/r.crl"))
            .sign(KEY)
        )
        assert GNUTLS.crl_urls(cert) == ["http://crl.example.com/r.crl"]

    def test_unsupported_library_returns_empty(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(crl_distribution_points("http://crl.example.com/r.crl"))
            .sign(KEY)
        )
        assert OPENSSL.crl_urls(cert) == []


class TestSubjectStrings:
    def test_openssl_oneline_injection(self):
        cert = (
            CertificateBuilder()
            .subject_attr(
                __import__("repro.asn1.oid", fromlist=["OID_ORGANIZATION_NAME"]).OID_ORGANIZATION_NAME,
                "acme/CN=evil.com",
            )
            .not_before(WHEN)
            .sign(KEY)
        )
        assert OPENSSL.subject_string(cert) == "/O=acme/CN=evil.com"

    def test_cryptography_escapes(self):
        cert = (
            CertificateBuilder()
            .subject_attr(
                __import__("repro.asn1.oid", fromlist=["OID_ORGANIZATION_NAME"]).OID_ORGANIZATION_NAME,
                "Acme, Inc.",
            )
            .not_before(WHEN)
            .sign(KEY)
        )
        assert CRYPTOGRAPHY.subject_string(cert) == "O=Acme\\, Inc."


class TestSANStrings:
    def test_subfield_forgery_pyopenssl(self):
        crafted = (
            CertificateBuilder()
            .subject_cn("a.com")
            .not_before(WHEN)
            .add_extension(subject_alt_name(GeneralName.dns("a.com, DNS:b.com")))
            .sign(KEY)
        )
        assert PYOPENSSL.san_string(crafted) == "DNS:a.com, DNS:b.com"

    def test_unsupported_san_returns_none(self):
        cert = (
            CertificateBuilder()
            .subject_cn("a.com")
            .not_before(WHEN)
            .add_extension(subject_alt_name(GeneralName.dns("a.com")))
            .sign(KEY)
        )
        assert OPENSSL.san_string(cert) is None
