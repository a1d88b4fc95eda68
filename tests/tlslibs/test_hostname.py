"""Tests for hostname verification over the parser profiles."""

import datetime as dt

from repro.asn1.strings import BMP_STRING
from repro.tlslibs.profiles import GO_CRYPTO, GNUTLS, JAVA_SECURITY_CERT, OPENSSL, PYOPENSSL
from repro.tlslibs.hostname import (
    bmp_cn_bypass_demo,
    match_hostname_pattern,
    verify_hostname,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=101)


def make_cert(cn=None, san=None, cn_spec=None):
    builder = CertificateBuilder().not_before(dt.datetime(2024, 1, 1))
    if cn is not None:
        builder.subject_cn(cn, spec=cn_spec) if cn_spec else builder.subject_cn(cn)
    if san is not None:
        builder.add_extension(
            subject_alt_name(*[GeneralName.dns(name) for name in san])
        )
    return builder.sign(KEY)


class TestPatternMatching:
    def test_exact(self):
        assert match_hostname_pattern("a.example.com", "a.example.com")

    def test_case_insensitive(self):
        assert match_hostname_pattern("A.Example.COM", "a.example.com")

    def test_trailing_dot(self):
        assert match_hostname_pattern("a.example.com.", "a.example.com")

    def test_wildcard_single_label(self):
        assert match_hostname_pattern("*.example.com", "www.example.com")
        assert not match_hostname_pattern("*.example.com", "a.b.example.com")

    def test_wildcard_not_bare_domain(self):
        assert not match_hostname_pattern("*.example.com", "example.com")

    def test_idn_forms_equivalent(self):
        assert match_hostname_pattern("münchen.de", "xn--mnchen-3ya.de")
        assert match_hostname_pattern("xn--mnchen-3ya.de", "münchen.de")

    def test_no_match(self):
        assert not match_hostname_pattern("a.example.com", "b.example.com")


class TestVerifyHostname:
    def test_san_preferred(self):
        cert = make_cert(cn="cn.example.com", san=["san.example.com"])
        verdict = verify_hostname(GNUTLS, cert, "san.example.com")
        assert verdict.matched and verdict.via == "san"
        # CN is ignored when a SAN exists.
        assert not verify_hostname(GNUTLS, cert, "cn.example.com").matched

    def test_cn_fallback(self):
        cert = make_cert(cn="only-cn.example.com")
        verdict = verify_hostname(GNUTLS, cert, "only-cn.example.com")
        assert verdict.matched and verdict.via == "cn"

    def test_cn_fallback_disabled(self):
        cert = make_cert(cn="only-cn.example.com")
        assert not verify_hostname(
            GNUTLS, cert, "only-cn.example.com", allow_cn_fallback=False
        ).matched

    def test_duplicate_cn_profile_dependent(self):
        cert = (
            CertificateBuilder()
            .subject_cn("first.example.com")
            .subject_cn("last.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .sign(KEY)
        )
        assert verify_hostname(PYOPENSSL, cert, "first.example.com").matched
        assert not verify_hostname(PYOPENSSL, cert, "last.example.com").matched
        assert verify_hostname(GO_CRYPTO, cert, "last.example.com").matched


class TestBMPBypass:
    def test_demo_outcomes(self):
        verdicts = bmp_cn_bypass_demo()
        # Compliant UCS-2 decoding sees CJK text: no match.
        assert not verdicts["Golang Crypto"].matched
        # Incompatible ASCII-flattening decoders validate the bypass.
        assert verdicts["Java.security.cert"].matched
        assert verdicts["OpenSSL"].matched

    def test_crafted_cn_bytes(self):
        cert = make_cert(cn="杩瑨畢攮据", cn_spec=BMP_STRING)
        attr = cert.subject.attributes()[0]
        assert attr.raw is None or True  # built, not parsed from raw
        assert BMP_STRING.encode("杩瑨畢攮据").decode("ascii") == "githube.cn"
