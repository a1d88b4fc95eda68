"""Tests for NameConstraints and the text-pipeline bypass."""

import datetime as dt

import pytest

from repro.asn1.oid import OID_ORGANIZATION_NAME
from repro.tlslibs.profiles import PYOPENSSL
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import basic_constraints, subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.name import Name
from repro.x509.name_constraints import (
    NameConstraints,
    check_chain_name_constraints,
    constraints_of,
    naive_text_check_permits,
    naive_text_hostname_match,
)

KEY = generate_keypair(seed=191)
CA_NAME = Name.build([(OID_ORGANIZATION_NAME, "Constrained CA")])


def make_ca(permitted=("a.com",), excluded=()):
    return (
        CertificateBuilder()
        .subject_name(CA_NAME)
        .not_before(dt.datetime(2020, 1, 1))
        .validity_days(3650)
        .add_extension(basic_constraints(ca=True))
        .add_extension(
            NameConstraints(
                permitted_dns=list(permitted), excluded_dns=list(excluded)
            ).to_extension()
        )
        .sign(KEY)
    )


def make_leaf(*san_names, cn="leaf.a.com"):
    return (
        CertificateBuilder()
        .subject_cn(cn)
        .issuer_name(CA_NAME)
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(*[GeneralName.dns(n) for n in san_names]))
        .sign(KEY)
    )


class TestCodec:
    def test_roundtrip(self):
        ca = make_ca(permitted=("a.com", "b.org"), excluded=("bad.a.com",))
        parsed = constraints_of(ca)
        assert parsed.permitted_dns == ["a.com", "b.org"]
        assert parsed.excluded_dns == ["bad.a.com"]

    def test_absent_returns_none(self):
        leaf = make_leaf("x.a.com")
        assert constraints_of(leaf) is None


class TestMatching:
    def test_subtree_semantics(self):
        constraints = NameConstraints(permitted_dns=["a.com"])
        assert constraints.permits("a.com")
        assert constraints.permits("www.a.com")
        assert constraints.permits("deep.sub.a.com")
        assert not constraints.permits("evil.com")
        assert not constraints.permits("nota.com")

    def test_exclusion_wins(self):
        constraints = NameConstraints(
            permitted_dns=["a.com"], excluded_dns=["internal.a.com"]
        )
        assert constraints.permits("www.a.com")
        assert not constraints.permits("x.internal.a.com")

    def test_no_permitted_means_allow(self):
        constraints = NameConstraints(excluded_dns=["bad.com"])
        assert constraints.permits("anything.example")
        assert not constraints.permits("x.bad.com")


class TestStructuredChecking:
    def test_compliant_leaf(self):
        ca = make_ca()
        leaf = make_leaf("www.a.com", "api.a.com")
        assert check_chain_name_constraints(leaf, ca) == []

    def test_violating_leaf(self):
        ca = make_ca()
        leaf = make_leaf("www.a.com", "evil.com")
        assert check_chain_name_constraints(leaf, ca) == ["evil.com"]

    def test_cn_fallback_when_no_san(self):
        ca = make_ca()
        leaf = (
            CertificateBuilder()
            .subject_cn("evil.com")
            .issuer_name(CA_NAME)
            .not_before(dt.datetime(2024, 1, 1))
            .sign(KEY)
        )
        assert check_chain_name_constraints(leaf, ca) == ["evil.com"]

    def test_crafted_embedded_name_rejected(self):
        # The single real DNSName is the whole crafted string, which is
        # not within a.com — structured checking catches it.
        ca = make_ca()
        crafted = make_leaf("evil.com, DNS:x.a.com")
        assert check_chain_name_constraints(crafted, ca) == ["evil.com, DNS:x.a.com"]


class TestTextPipelineBypass:
    """The full CVE-2021-44533-shaped bypass, end to end."""

    def test_bypass_chain(self):
        ca = make_ca(permitted=("a.com",))
        crafted = make_leaf("evil.com, DNS:x.a.com")
        san_text = PYOPENSSL.san_string(crafted)
        assert san_text == "DNS:evil.com, DNS:x.a.com"
        # Buggy any()-based constraint check approves (decoy x.a.com)...
        assert naive_text_check_permits(san_text, ca)
        # ...and the text hostname matcher validates the victim host.
        assert naive_text_hostname_match(san_text, "evil.com")
        # The structured pipeline rejects the same certificate.
        assert check_chain_name_constraints(crafted, ca)

    def test_honest_cert_passes_both(self):
        ca = make_ca(permitted=("a.com",))
        honest = make_leaf("www.a.com")
        san_text = PYOPENSSL.san_string(honest)
        assert naive_text_check_permits(san_text, ca)
        assert check_chain_name_constraints(honest, ca) == []

    def test_blatant_forgery_caught_even_naively(self):
        ca = make_ca(permitted=("a.com",))
        forged = make_leaf("evil.com")
        san_text = PYOPENSSL.san_string(forged)
        assert not naive_text_check_permits(san_text, ca)
