"""Tests for PEM armor."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.keys import generate_keypair
from repro.x509.pem import (
    PEMError,
    decode_pem,
    decode_pem_all,
    encode_pem,
    load_certificate_bytes,
)

KEY = generate_keypair(seed=111)


def sample_der() -> bytes:
    return (
        CertificateBuilder()
        .subject_cn("pem.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .sign(KEY)
        .to_der()
    )


class TestRoundtrip:
    def test_certificate_roundtrip(self):
        der = sample_der()
        pem = encode_pem(der)
        assert pem.startswith("-----BEGIN CERTIFICATE-----")
        assert decode_pem(pem) == der
        cert = Certificate.from_der(load_certificate_bytes(pem.encode()))
        assert cert.subject_common_names == ["pem.example.com"]

    def test_64_column_lines(self):
        pem = encode_pem(sample_der())
        for line in pem.splitlines()[1:-1]:
            assert len(line) <= 64

    def test_multiple_blocks(self):
        der = sample_der()
        bundle = encode_pem(der) + encode_pem(der)
        assert decode_pem_all(bundle) == [der, der]

    def test_label_filter(self):
        pem = encode_pem(b"\x01\x02", label="X509 CRL")
        with pytest.raises(PEMError):
            decode_pem(pem, label="CERTIFICATE")
        assert decode_pem(pem, label="X509 CRL") == b"\x01\x02"

    def test_raw_der_passthrough(self):
        der = sample_der()
        assert load_certificate_bytes(der) == der

    def test_garbage_rejected(self):
        with pytest.raises(PEMError):
            decode_pem("no pem here")

    def test_bad_base64_rejected(self):
        with pytest.raises(PEMError):
            decode_pem("-----BEGIN CERTIFICATE-----\n!!!!\n-----END CERTIFICATE-----")


@given(st.binary(min_size=0, max_size=300))
def test_pem_roundtrip_property(data):
    assert decode_pem(encode_pem(data)) == data
