"""Tests for the TLS record/handshake substrate."""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.tls.records import (
    ContentType,
    TLSFramingError,
    TLSRecord,
    build_server_flight,
    build_tls13_like_flight,
    decode_certificate_message,
    encode_certificate_message,
    iter_handshake_messages,
    iter_records,
    sniff_certificates,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=181)


def make_chain(count=2):
    certs = []
    for i in range(count):
        certs.append(
            CertificateBuilder()
            .subject_cn(f"link{i}.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .sign(KEY)
        )
    return certs


class TestRecordLayer:
    def test_roundtrip(self):
        record = TLSRecord(ContentType.HANDSHAKE, b"payload")
        parsed = list(iter_records(record.encode()))
        assert parsed == [record]

    def test_multiple_records(self):
        stream = (
            TLSRecord(ContentType.HANDSHAKE, b"a").encode()
            + TLSRecord(ContentType.ALERT, b"b").encode()
        )
        parsed = list(iter_records(stream))
        assert [r.content_type for r in parsed] == [
            ContentType.HANDSHAKE,
            ContentType.ALERT,
        ]

    def test_truncated_header(self):
        with pytest.raises(TLSFramingError):
            list(iter_records(b"\x16\x03\x03"))

    def test_truncated_payload(self):
        with pytest.raises(TLSFramingError):
            list(iter_records(b"\x16\x03\x03\x00\x10abc"))

    def test_unknown_content_type(self):
        with pytest.raises(TLSFramingError):
            list(iter_records(b"\x63\x03\x03\x00\x00"))

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(TLSFramingError):
            TLSRecord(ContentType.HANDSHAKE, b"x" * 0x4001).encode()


class TestCertificateMessage:
    def test_roundtrip(self):
        chain = make_chain(3)
        message = encode_certificate_message(chain)
        msg_type, body = next(iter_handshake_messages(message))
        assert msg_type == 11
        ders = decode_certificate_message(body)
        assert ders == [cert.to_der() for cert in chain]

    def test_truncated_entry(self):
        with pytest.raises(TLSFramingError):
            decode_certificate_message(b"\x00\x00\x05\x00\x00\x09ab")


class TestSniffer:
    def test_tls12_certificates_visible(self):
        chain = make_chain(2)
        stream = build_server_flight(chain)
        ders = sniff_certificates(stream)
        assert len(ders) == 2
        parsed = Certificate.from_der(ders[0])
        assert parsed.subject_common_names == ["link0.example.com"]

    def test_tls13_certificates_invisible(self):
        # The paper's scope note: certificate-based traffic analysis
        # applies to TLS 1.2 and earlier.
        chain = make_chain(2)
        stream = build_tls13_like_flight(chain)
        assert sniff_certificates(stream) == []

    def test_middlebox_end_to_end(self):
        # Full path: crafted cert -> wire -> sniffer -> Snort rule.
        from repro.asn1.oid import OID_ORGANIZATION_NAME
        from repro.threats.traffic import SNORT

        crafted = (
            CertificateBuilder()
            .subject_cn("c2.example.com")
            .subject_attr(OID_ORGANIZATION_NAME, "Evil\x00 Entity")
            .not_before(dt.datetime(2024, 1, 1))
            .sign(KEY)
        )
        stream = build_server_flight([crafted])
        sniffed = Certificate.from_der(sniff_certificates(stream)[0])
        # The NUL variant evades the naive exact-match rule on the wire.
        assert not SNORT.matches_rule(sniffed, "Evil Entity")
        assert SNORT.matches_rule(sniffed, "Evil\x00 Entity")


@settings(max_examples=100)
@given(st.binary(max_size=128))
def test_sniffer_never_crashes_on_garbage(data):
    try:
        sniff_certificates(data)
    except TLSFramingError:
        pass
