"""Failure-injection and fuzz tests: malformed inputs must raise typed
errors, never crash with unexpected exceptions.

Mirrors the mutation-based robustness testing of the paper's related
work (SBDT-style ASN.1 tree mutation): byte-level corruption of valid
certificates must leave every public entry point either working or
raising a library exception.  The corruption strategies themselves are
the :mod:`repro.fuzz.mutators` byte primitives — the same operators the
campaign driver applies — so the robustness suite and the campaign
share one corruption vocabulary instead of maintaining two.
"""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.der import parse
from repro.asn1.errors import ASN1Error
from repro.fuzz.mutators import byte_delete, byte_flip, byte_insert, truncate
from repro.uni import punycode
from repro.uni.errors import PunycodeError
from repro.uni.idna import alabel_violations
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=131)


def sample_der() -> bytes:
    return (
        CertificateBuilder()
        .subject_cn("fuzz.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns("fuzz.example.com")))
        .sign(KEY)
        .to_der()
    )


BASE_DER = sample_der()

#: Exceptions the parse entry points are allowed to raise on garbage.
TYPED_ERRORS = (ASN1Error, OverflowError, ValueError)


def _parse_survives(der: bytes) -> None:
    """Parse must work or fail typed; accessors must not crash either."""
    try:
        cert = Certificate.from_der(der, strict=False)
    except TYPED_ERRORS:
        return
    _ = cert.subject_common_names
    _ = cert.san_dns_names
    _ = cert.dns_names
    _ = cert.is_precertificate


class TestDERFuzz:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=200)
    def test_random_bytes_never_crash_parser(self, data):
        try:
            parse(data, strict=True)
        except ASN1Error:
            pass  # typed failure is the contract

    @given(
        st.integers(min_value=0, max_value=len(BASE_DER) - 1),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=300)
    def test_single_byte_corruption(self, index, value):
        _parse_survives(byte_flip(BASE_DER, index, value))

    @given(
        st.integers(min_value=0, max_value=len(BASE_DER)),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=150)
    def test_byte_insertion(self, index, value):
        _parse_survives(byte_insert(BASE_DER, index, value))

    @given(st.integers(min_value=0, max_value=len(BASE_DER) - 1))
    @settings(max_examples=150)
    def test_byte_deletion(self, index):
        _parse_survives(byte_delete(BASE_DER, index))

    @given(st.integers(min_value=1, max_value=len(BASE_DER) - 1))
    @settings(max_examples=100)
    def test_truncation(self, cut):
        # Any truncation breaks the outer TLV length: typed error only.
        try:
            Certificate.from_der(truncate(BASE_DER, cut), strict=False)
        except TYPED_ERRORS:
            return
        raise AssertionError("truncated parse unexpectedly succeeded")


class TestLintFuzz:
    @given(
        st.integers(min_value=0, max_value=len(BASE_DER) - 1),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=100, deadline=None)
    def test_linting_mutated_certs_never_crashes(self, index, value):
        from repro.lint.runner import run_lints

        try:
            cert = Certificate.from_der(
                byte_flip(BASE_DER, index, value), strict=False
            )
        except TYPED_ERRORS:
            return
        report = run_lints(cert)
        assert report is not None


class TestParserProfileFuzz:
    @given(st.binary(max_size=64), st.sampled_from([12, 19, 20, 22, 26, 18, 28, 30]))
    @settings(max_examples=200)
    def test_profiles_never_crash_on_raw_bytes(self, raw, tag):
        from repro.tlslibs.profiles import ALL_PROFILES

        for profile in ALL_PROFILES:
            outcome = profile.decode_dn_attribute(tag, raw)
            assert outcome.ok or outcome.error

    @given(st.binary(max_size=64))
    @settings(max_examples=100)
    def test_gn_decoders_never_crash(self, raw):
        from repro.tlslibs.profiles import ALL_PROFILES

        for profile in ALL_PROFILES:
            for context in ("san", "crldp"):
                outcome = profile.decode_gn(raw, context=context)
                assert outcome.ok or outcome.error


class TestIDNFuzz:
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", max_size=32))
    @settings(max_examples=200)
    def test_alabel_violations_never_crash(self, payload):
        problems = alabel_violations("xn--" + payload)
        assert isinstance(problems, list)

    @given(st.text(max_size=32))
    @settings(max_examples=200)
    def test_ulabel_violations_never_crash(self, label):
        from repro.uni.idna import ulabel_violations

        problems = ulabel_violations(label)
        assert isinstance(problems, list)

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_punycode_encode_total(self, text):
        try:
            encoded = punycode.encode(text)
        except PunycodeError:
            return
        assert punycode.decode(encoded) == text


class TestMonitorFuzz:
    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_monitor_queries_never_crash(self, query):
        from repro.ct.monitors import ALL_MONITORS

        for monitor in ALL_MONITORS():
            result = monitor.search(query)
            assert result.refused or isinstance(result.matches, list)
