"""Focused tests for the extension codecs."""

import pytest

from repro.asn1.der import parse
from repro.asn1.strings import BMP_STRING, UTF8_STRING
from repro.asn1.oid import (
    OID_AD_CA_ISSUERS,
    OID_AD_OCSP,
    OID_CP_ANY_POLICY,
    OID_CP_DOMAIN_VALIDATED,
    OID_EXT_SAN,
    OID_EKU_SERVER_AUTH,
    OID_EKU_CLIENT_AUTH,
    OID_QT_CPS,
    OID_QT_UNOTICE,
)
from repro.x509.extensions import (
    AccessDescription,
    CRLDistributionPoints,
    Extension,
    GeneralNames,
    InfoAccess,
    ParsedPolicies,
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    basic_constraints,
    certificate_policies,
    crl_distribution_points,
    ct_poison,
    extended_key_usage,
    parse_basic_constraints,
    subject_alt_name,
)
from repro.x509.general_name import GeneralName


class TestExtensionWrapper:
    def test_critical_flag_roundtrip(self):
        ext = Extension(OID_EXT_SAN, True, b"\x30\x00")
        parsed = Extension.parse(parse(ext.encode().encode()))
        assert parsed.critical
        assert parsed.oid == OID_EXT_SAN
        assert parsed.value_der == b"\x30\x00"

    def test_noncritical_default(self):
        ext = Extension(OID_EXT_SAN, False, b"\x30\x00")
        parsed = Extension.parse(parse(ext.encode().encode()))
        assert not parsed.critical


class TestGeneralNames:
    def test_mixed_kinds_roundtrip(self):
        gns = GeneralNames(
            [
                GeneralName.dns("a.example.com"),
                GeneralName.email("x@example.com"),
                GeneralName.uri("https://example.com/"),
                GeneralName.ip("192.0.2.7"),
            ]
        )
        parsed = GeneralNames.parse(gns.encode())
        assert parsed.dns_names() == ["a.example.com"]
        assert len(parsed.names) == 4

    def test_empty_sequence(self):
        parsed = GeneralNames.parse(GeneralNames([]).encode())
        assert parsed.names == []


class TestInfoAccess:
    def test_multiple_descriptions(self):
        access = InfoAccess(
            [
                AccessDescription(OID_AD_OCSP, GeneralName.uri("http://ocsp.example/")),
                AccessDescription(
                    OID_AD_CA_ISSUERS, GeneralName.uri("http://ca.example/ca.crt")
                ),
            ]
        )
        parsed = InfoAccess.parse(access.encode())
        assert parsed.locations_for(OID_AD_OCSP) == ["http://ocsp.example/"]
        assert parsed.locations_for(OID_AD_CA_ISSUERS) == ["http://ca.example/ca.crt"]


class TestCRLDP:
    def test_multiple_points(self):
        ext = crl_distribution_points("http://a.example/1.crl", "http://b.example/2.crl")
        parsed = CRLDistributionPoints.parse(ext.value_der)
        assert parsed.all_urls() == ["http://a.example/1.crl", "http://b.example/2.crl"]

    def test_empty(self):
        parsed = CRLDistributionPoints.parse(CRLDistributionPoints([]).encode())
        assert parsed.all_urls() == []


class TestPolicies:
    def test_multiple_policies(self):
        ext = certificate_policies(
            PolicyInformation(OID_CP_ANY_POLICY),
            PolicyInformation(
                OID_CP_DOMAIN_VALIDATED,
                qualifiers=[
                    PolicyQualifier(OID_QT_CPS, cps_uri="http://cps.example/"),
                    PolicyQualifier(
                        OID_QT_UNOTICE, user_notice=UserNotice("notice", UTF8_STRING)
                    ),
                ],
            ),
        )
        parsed = ParsedPolicies.parse(ext.value_der)
        assert parsed.policy_oids == [OID_CP_ANY_POLICY, OID_CP_DOMAIN_VALIDATED]
        assert parsed.cps_uris == ["http://cps.example/"]
        assert parsed.explicit_texts[0][1] == "notice"

    def test_bmp_text_decode_flag(self):
        ext = certificate_policies(
            PolicyInformation(
                OID_CP_DOMAIN_VALIDATED,
                qualifiers=[
                    PolicyQualifier(
                        OID_QT_UNOTICE, user_notice=UserNotice("中文", BMP_STRING)
                    )
                ],
            )
        )
        tag, text, ok = ParsedPolicies.parse(ext.value_der).explicit_texts[0]
        assert tag == 30 and text == "中文" and ok


class TestBasicConstraintsAndEKU:
    def test_ca_with_pathlen(self):
        ext = basic_constraints(ca=True, path_len=2)
        assert ext.critical
        assert parse_basic_constraints(ext.value_der) == (True, 2)

    def test_end_entity(self):
        ext = basic_constraints(ca=False, critical=False)
        assert parse_basic_constraints(ext.value_der) == (False, None)

    def test_eku_encodes(self):
        ext = extended_key_usage(OID_EKU_SERVER_AUTH, OID_EKU_CLIENT_AUTH)
        root = parse(ext.value_der)
        assert len(root.children) == 2

    def test_ct_poison_is_critical_null(self):
        ext = ct_poison()
        assert ext.critical
        assert ext.value_der == b"\x05\x00"
