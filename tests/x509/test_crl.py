"""Tests for the CRL substrate."""

import datetime as dt

import pytest

from repro.asn1.oid import OID_ORGANIZATION_NAME
from repro.x509.keys import generate_keypair
from repro.x509.name import Name
from repro.x509.crl import CertificateRevocationList, RevokedCertificate, build_crl

KEY = generate_keypair(seed=81)
ISSUER = Name.build([(OID_ORGANIZATION_NAME, "Test CA")])


class TestRoundtrip:
    def test_empty_crl(self):
        crl, der = build_crl(ISSUER, KEY, revoked_serials=[])
        parsed = CertificateRevocationList.from_der(der)
        assert parsed.revoked == []
        assert parsed.issuer.get(OID_ORGANIZATION_NAME) == ["Test CA"]

    def test_revoked_entries(self):
        crl, der = build_crl(ISSUER, KEY, revoked_serials=[1, 2, 666])
        parsed = CertificateRevocationList.from_der(der)
        assert [entry.serial for entry in parsed.revoked] == [1, 2, 666]
        assert parsed.is_revoked(666)
        assert not parsed.is_revoked(3)

    def test_update_window(self):
        crl, der = build_crl(
            ISSUER, KEY, revoked_serials=[], this_update=dt.datetime(2024, 6, 1)
        )
        parsed = CertificateRevocationList.from_der(der)
        assert parsed.is_current(dt.datetime(2024, 6, 3))
        assert not parsed.is_current(dt.datetime(2024, 7, 1))


class TestSignature:
    def test_verifies_with_issuer_key(self):
        crl, der = build_crl(ISSUER, KEY, revoked_serials=[5])
        parsed = CertificateRevocationList.from_der(der)
        assert parsed.verify(KEY.public_key)

    def test_rejects_wrong_key(self):
        crl, der = build_crl(ISSUER, KEY, revoked_serials=[5])
        parsed = CertificateRevocationList.from_der(der)
        other = generate_keypair(seed=82)
        assert not parsed.verify(other.public_key)

    def test_tamper_detected(self):
        crl, der = build_crl(ISSUER, KEY, revoked_serials=[5])
        parsed = CertificateRevocationList.from_der(der)
        parsed.tbs_der = parsed.tbs_der[:-1] + bytes([parsed.tbs_der[-1] ^ 1])
        assert not parsed.verify(KEY.public_key)
