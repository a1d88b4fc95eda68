"""Tests for the CRL-subversion threat experiment (Section 5.2)."""

import datetime as dt

from repro.asn1.oid import OID_ORGANIZATION_NAME
from repro.threats.revocation import (
    CRLHostRegistry,
    RevocationClient,
    revocation_subversion_experiment,
)
from repro.tlslibs.profiles import GNUTLS, PYOPENSSL
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import crl_distribution_points
from repro.x509.keys import generate_keypair
from repro.x509.name import Name
from repro.x509.crl import build_crl


class TestExperiment:
    def test_pyopenssl_subverted(self):
        outcomes = revocation_subversion_experiment()
        # A correct parser checks the genuine URL and sees the revocation.
        assert outcomes["GnuTLS"].revoked
        assert not outcomes["GnuTLS"].accepted
        # The dot-rewriting parser fetches the attacker's host instead.
        assert outcomes["PyOpenSSL"].checked_url == "http://ssl.test.com/ca.crl"
        assert not outcomes["PyOpenSSL"].revoked
        assert outcomes["PyOpenSSL"].accepted

    def test_signature_check_defeats_the_attack(self):
        # A client verifying CRL signatures with the CA key soft-fails
        # on the attacker's CRL instead of trusting it.
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
        client = RevocationClient(
            PYOPENSSL, registry, issuer_key=ca_key.public_key, hard_fail=True
        )
        outcome = client.check(victim)
        assert outcome.soft_failed
        assert outcome.revoked  # hard-fail policy blocks the connection


class TestClient:
    def test_no_crldp_soft_fails(self):
        key = generate_keypair(seed=91)
        cert = CertificateBuilder().subject_cn("x.example.com").not_before(
            dt.datetime(2024, 1, 1)
        ).sign(key)
        client = RevocationClient(GNUTLS, CRLHostRegistry())
        outcome = client.check(cert)
        assert outcome.soft_failed
        assert outcome.accepted

    def test_unreachable_host_soft_fails(self):
        key = generate_keypair(seed=92)
        cert = (
            CertificateBuilder()
            .subject_cn("x.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(crl_distribution_points("http://gone.example/c.crl"))
            .sign(key)
        )
        client = RevocationClient(GNUTLS, CRLHostRegistry())
        outcome = client.check(cert)
        assert outcome.soft_failed and not outcome.fetched
