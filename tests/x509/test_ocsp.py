"""Tests for the OCSP substrate and the OCSP-first client behaviour."""

import datetime as dt

import pytest

from repro.x509.keys import generate_keypair
from repro.x509.ocsp import CertStatus, OCSPResponder, OCSPResponse

KEY = generate_keypair(seed=211)


class TestResponder:
    def test_good_status(self):
        responder = OCSPResponder(KEY)
        responder.register(42)
        response = OCSPResponse.from_der(responder.respond(42))
        assert response.status is CertStatus.GOOD
        assert response.serial == 42

    def test_revoked_status(self):
        responder = OCSPResponder(KEY)
        responder.revoke(666)
        response = OCSPResponse.from_der(responder.respond(666))
        assert response.status is CertStatus.REVOKED

    def test_unknown_status(self):
        responder = OCSPResponder(KEY)
        response = OCSPResponse.from_der(responder.respond(7))
        assert response.status is CertStatus.UNKNOWN

    def test_signature_verifies(self):
        responder = OCSPResponder(KEY)
        responder.register(1)
        response = OCSPResponse.from_der(responder.respond(1))
        assert response.verify(KEY.public_key)
        assert not response.verify(generate_keypair(seed=212).public_key)

    def test_validity_window(self):
        responder = OCSPResponder(KEY, lifetime_minutes=60)
        responder.register(1)
        response = OCSPResponse.from_der(responder.respond(1, when=dt.datetime(2024, 6, 1, 12)))
        assert response.is_current(dt.datetime(2024, 6, 1, 12, 30))
        assert not response.is_current(dt.datetime(2024, 6, 1, 14))


class TestOCSPFirstClient:
    def test_ocsp_defeats_crl_rewriting(self):
        """With OCSP deployed, the Section 5.2 attack is neutralized."""
        from repro.asn1.oid import OID_ORGANIZATION_NAME
        from repro.threats.revocation import CRLHostRegistry, RevocationClient
        from repro.tlslibs.profiles import PYOPENSSL
        from repro.x509.builder import CertificateBuilder
        from repro.x509.extensions import crl_distribution_points
        from repro.x509.name import Name
        from repro.x509.crl import build_crl

        ca_key = generate_keypair(seed="revocation-ca")
        ca_name = Name.build([(OID_ORGANIZATION_NAME, "Compromised CA")])
        victim = (
            CertificateBuilder()
            .serial(666)
            .subject_cn("revoked.example.com")
            .issuer_name(ca_name)
            .not_before(dt.datetime(2024, 5, 1))
            .add_extension(crl_distribution_points("http://ssl\x01test.com/ca.crl"))
            .sign(ca_key)
        )
        registry = CRLHostRegistry()
        attacker_key = generate_keypair(seed="attacker")
        _fake, fake_der = build_crl(ca_name, attacker_key, revoked_serials=[])
        registry.publish("http://ssl.test.com/ca.crl", fake_der)

        responder = OCSPResponder(ca_key)
        responder.revoke(666)
        client = RevocationClient(
            PYOPENSSL, registry, issuer_key=ca_key.public_key, ocsp_responder=responder
        )
        outcome = client.check(victim)
        assert outcome.checked_url == "ocsp"
        assert outcome.revoked and not outcome.accepted

    def test_unknown_falls_back_to_crl(self):
        from repro.asn1.oid import OID_ORGANIZATION_NAME
        from repro.threats.revocation import CRLHostRegistry, RevocationClient
        from repro.tlslibs.profiles import GNUTLS
        from repro.x509.builder import CertificateBuilder
        from repro.x509.extensions import crl_distribution_points
        from repro.x509.name import Name
        from repro.x509.crl import build_crl

        ca_key = generate_keypair(seed=213)
        ca_name = Name.build([(OID_ORGANIZATION_NAME, "CA")])
        cert = (
            CertificateBuilder()
            .serial(5)
            .subject_cn("x.example.com")
            .issuer_name(ca_name)
            .not_before(dt.datetime(2024, 5, 1))
            .add_extension(crl_distribution_points("http://crl.example/c.crl"))
            .sign(ca_key)
        )
        registry = CRLHostRegistry()
        _crl, der = build_crl(ca_name, ca_key, revoked_serials=[5])
        registry.publish("http://crl.example/c.crl", der)
        responder = OCSPResponder(ca_key)  # serial 5 unknown to OCSP
        client = RevocationClient(
            GNUTLS, registry, issuer_key=ca_key.public_key, ocsp_responder=responder
        )
        outcome = client.check(cert)
        assert outcome.checked_url == "http://crl.example/c.crl"
        assert outcome.revoked
