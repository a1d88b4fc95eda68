"""Tests for the certificate builder, codec, and accessors."""

import datetime as dt
import hashlib

import pytest

from repro.asn1.der import parse
from repro.asn1.strings import BMP_STRING, PRINTABLE_STRING, TELETEX_STRING, UTF8_STRING
from repro.asn1.oid import (
    OID_AD_CA_ISSUERS,
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_CP_DOMAIN_VALIDATED,
    OID_ORGANIZATION_NAME,
    OID_QT_UNOTICE,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import (
    AccessDescription,
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    authority_info_access,
    basic_constraints,
    certificate_policies,
    crl_distribution_points,
    subject_alt_name,
)
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.name import Name

KEY = generate_keypair(seed=42)


def build_simple(**kwargs):
    builder = (
        CertificateBuilder()
        .serial(kwargs.get("serial", 7))
        .subject_attr(OID_COUNTRY_NAME, "DE", PRINTABLE_STRING)
        .subject_cn(kwargs.get("cn", "test.example.com"))
        .add_extension(subject_alt_name(GeneralName.dns(kwargs.get("cn", "test.example.com"))))
    )
    return builder.sign(KEY)


class TestBuilderBasics:
    def test_roundtrip_through_der(self):
        cert = build_simple()
        reparsed = Certificate.from_der(cert.to_der())
        assert reparsed.serial == 7
        assert reparsed.subject_common_names == ["test.example.com"]
        assert reparsed.san_dns_names == ["test.example.com"]

    def test_self_signed_by_default(self):
        cert = build_simple()
        assert cert.is_self_issued

    def test_explicit_issuer(self):
        issuer = Name.build([(OID_ORGANIZATION_NAME, "Test CA")])
        cert = CertificateBuilder().subject_cn("x").issuer_name(issuer).sign(KEY)
        assert cert.issuer.get(OID_ORGANIZATION_NAME) == ["Test CA"]
        assert not cert.is_self_issued

    def test_validity(self):
        start = dt.datetime(2024, 3, 1)
        cert = (
            CertificateBuilder()
            .subject_cn("x")
            .not_before(start)
            .validity_days(398)
            .sign(KEY)
        )
        assert cert.not_before == start
        assert cert.validity_days == pytest.approx(398)
        assert cert.is_valid_at(start + dt.timedelta(days=100))
        assert not cert.is_valid_at(start + dt.timedelta(days=500))

    def test_signature_verifies(self):
        cert = build_simple()
        assert cert.public_key is not None
        assert cert.public_key.verify(cert.tbs_der, cert.signature)

    def test_fingerprint_stable(self):
        cert = build_simple()
        assert cert.fingerprint() == Certificate.from_der(cert.to_der()).fingerprint()

    @pytest.mark.parametrize("seed", [1, 42, "issuer-ca"])
    def test_crt_signature_equals_the_textbook_signature(self, seed):
        key = generate_keypair(seed=seed)
        assert key.p * key.q == key.n
        for message in (b"", b"tbs", bytes(range(256)) * 3):
            digest = int.from_bytes(hashlib.sha256(message).digest(), "big")
            textbook = pow(digest, key.d, key.n).to_bytes(64, "big")
            assert key.sign(message) == textbook
            assert key.public_key.verify(message, textbook)

    def test_spliced_der_equals_the_element_encoding(self):
        cert = build_simple()
        der = cert.to_der()
        assert parse(der).encode() == der
        assert der[4 : 4 + len(cert.tbs_der)] == cert.tbs_der


class TestMalformedCrafting:
    def test_duplicate_cn(self):
        cert = (
            CertificateBuilder().subject_cn("first").subject_cn("second").sign(KEY)
        )
        assert cert.subject_common_names == ["first", "second"]
        assert cert.subject.has_duplicates(OID_COMMON_NAME)

    def test_control_chars_in_cn(self):
        cert = CertificateBuilder().subject_cn("evil\x00entity").sign(KEY)
        assert "\x00" in cert.subject_common_names[0]

    def test_bmp_encoded_cn(self):
        cert = CertificateBuilder().subject_cn("中国", spec=BMP_STRING).sign(KEY)
        attr = cert.subject.attributes()[0]
        assert attr.spec.name == "BMPString"
        assert attr.value == "中国"

    def test_teletex_cn(self):
        cert = CertificateBuilder().subject_cn("Störi AG", spec=TELETEX_STRING).sign(KEY)
        assert cert.subject.attributes()[0].spec.name == "TeletexString"

    def test_raw_invalid_utf8(self):
        cert = (
            CertificateBuilder()
            .subject_attr(OID_COMMON_NAME, "", UTF8_STRING, raw=b"\xff\xfe")
            .sign(KEY)
        )
        assert not cert.subject.attributes()[0].decode_ok

    def test_printable_with_at_sign(self):
        # Charset violation carried through the lenient encoder.
        cert = CertificateBuilder().subject_cn("user@host", spec=PRINTABLE_STRING).sign(KEY)
        attr = cert.subject.attributes()[0]
        assert attr.spec.name == "PrintableString"
        assert attr.value == "user@host"


class TestExtensions:
    def test_precertificate(self):
        cert = CertificateBuilder().subject_cn("x").precertificate().sign(KEY)
        assert cert.is_precertificate
        assert not build_simple().is_precertificate

    def test_basic_constraints(self):
        cert = (
            CertificateBuilder()
            .subject_cn("CA")
            .add_extension(basic_constraints(ca=True, path_len=1))
            .sign(KEY)
        )
        assert cert.is_ca

    def test_aia(self):
        cert = (
            CertificateBuilder()
            .subject_cn("x")
            .add_extension(
                authority_info_access(
                    AccessDescription(
                        OID_AD_CA_ISSUERS, GeneralName.uri("http://ca.example/ca.crt")
                    )
                )
            )
            .sign(KEY)
        )
        assert cert.ca_issuer_urls == ["http://ca.example/ca.crt"]

    def test_crl_distribution_points(self):
        cert = (
            CertificateBuilder()
            .subject_cn("x")
            .add_extension(crl_distribution_points("http://crl.example/r.crl"))
            .sign(KEY)
        )
        assert cert.crl_distribution_points.all_urls() == ["http://crl.example/r.crl"]

    def test_certificate_policies_with_unotice(self):
        policy = PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            qualifiers=[
                PolicyQualifier(
                    OID_QT_UNOTICE,
                    user_notice=UserNotice("Política de certificación", UTF8_STRING),
                )
            ],
        )
        cert = (
            CertificateBuilder()
            .subject_cn("x")
            .add_extension(certificate_policies(policy))
            .sign(KEY)
        )
        parsed = cert.policies
        assert parsed.policy_oids == [OID_CP_DOMAIN_VALIDATED]
        assert parsed.explicit_texts[0][1] == "Política de certificación"
        assert parsed.explicit_texts[0][0] == 12  # UTF8String tag

    def test_unotice_with_bmp_text(self):
        # The paper's top lint: explicitText not UTF8String.
        policy = PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            qualifiers=[
                PolicyQualifier(
                    OID_QT_UNOTICE, user_notice=UserNotice("notice", BMP_STRING)
                )
            ],
        )
        cert = (
            CertificateBuilder()
            .subject_cn("x")
            .add_extension(certificate_policies(policy))
            .sign(KEY)
        )
        tag, text, ok = cert.policies.explicit_texts[0]
        assert tag == 30  # BMPString
        assert text == "notice"

    def test_missing_extensions_return_none(self):
        cert = CertificateBuilder().subject_cn("x").sign(KEY)
        assert cert.san is None
        assert cert.aia is None
        assert cert.crl_distribution_points is None
        assert cert.policies is None

    def test_dns_names_cn_fallback(self):
        cert = CertificateBuilder().subject_cn("fallback.example").sign(KEY)
        assert cert.dns_names == ["fallback.example"]


class TestChainVerification:
    def test_chain_via_pool(self):
        from repro.x509.verify import CertificatePool, build_chain

        root_key = generate_keypair(seed=1)
        root_name = Name.build([(OID_ORGANIZATION_NAME, "Root CA")])
        root = (
            CertificateBuilder()
            .subject_name(root_name)
            .add_extension(basic_constraints(ca=True))
            .sign(root_key)
        )
        leaf = (
            CertificateBuilder().subject_cn("leaf.example").issuer_name(root_name).sign(root_key)
        )
        pool = CertificatePool()
        pool.add(root)
        chain = build_chain(leaf, pool)
        assert [c.fingerprint() for c in chain] == [leaf.fingerprint(), root.fingerprint()]

    def test_chain_via_aia_url(self):
        from repro.x509.verify import CertificatePool, build_chain

        root_key = generate_keypair(seed=2)
        root_name = Name.build([(OID_ORGANIZATION_NAME, "AIA Root")])
        root = (
            CertificateBuilder()
            .subject_name(root_name)
            .add_extension(basic_constraints(ca=True))
            .sign(root_key)
        )
        leaf = (
            CertificateBuilder()
            .subject_cn("leaf.example")
            .issuer_name(root_name)
            .add_extension(
                authority_info_access(
                    AccessDescription(
                        OID_AD_CA_ISSUERS, GeneralName.uri("http://aia.example/root.crt")
                    )
                )
            )
            .sign(root_key)
        )
        pool = CertificatePool()
        pool.add(root, url="http://aia.example/root.crt")
        # Remove the by-subject route to force the AIA path.
        pool.by_subject.clear()
        chain = build_chain(leaf, pool)
        assert chain[-1].fingerprint() == root.fingerprint()

    def test_unverifiable_chain(self):
        from repro.x509.verify import CertificatePool, ChainError, build_chain

        orphan = (
            CertificateBuilder()
            .subject_cn("orphan.example")
            .issuer_name(Name.build([(OID_ORGANIZATION_NAME, "Ghost CA")]))
            .sign(KEY)
        )
        with pytest.raises(ChainError):
            build_chain(orphan, CertificatePool())

    def test_trust_anchor(self):
        from repro.x509.verify import CertificatePool, is_trusted

        root_key = generate_keypair(seed=3)
        root_name = Name.build([(OID_ORGANIZATION_NAME, "Trusted Root")])
        root = (
            CertificateBuilder()
            .subject_name(root_name)
            .add_extension(basic_constraints(ca=True))
            .sign(root_key)
        )
        leaf = (
            CertificateBuilder().subject_cn("ok.example").issuer_name(root_name).sign(root_key)
        )
        pool = CertificatePool()
        pool.add(root)
        assert is_trusted(leaf, pool, {root.fingerprint()})
        assert not is_trusted(leaf, pool, {"deadbeef"})


class TestKeys:
    def test_deterministic(self):
        assert generate_keypair(seed=9).n == generate_keypair(seed=9).n

    def test_different_seeds_differ(self):
        assert generate_keypair(seed=1).n != generate_keypair(seed=2).n

    def test_sign_verify(self):
        key = generate_keypair(seed=5)
        sig = key.sign(b"message")
        assert key.public_key.verify(b"message", sig)
        assert not key.public_key.verify(b"tampered", sig)

    def test_spki_roundtrip(self):
        from repro.asn1.der import parse
        from repro.x509.keys import SimPublicKey

        key = generate_keypair(seed=6).public_key
        assert SimPublicKey.from_spki(parse(key.to_spki().encode())) == key

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(seed=1, bits=128)
