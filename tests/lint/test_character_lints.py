"""Behavioural tests for the T1 Invalid Character lints."""

import datetime as dt

import pytest

from repro.asn1.strings import PRINTABLE_STRING, UTF8_STRING
from repro.asn1.oid import OID_ORGANIZATION_NAME
from repro.lint.framework import REGISTRY, LintStatus
from repro.lint.runner import run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import crl_distribution_points, subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=7)
WHEN = dt.datetime(2024, 3, 1)


def build(cn="ok.example.com", san_name=None, **extra):
    builder = (
        CertificateBuilder().subject_cn(cn).not_before(WHEN).validity_days(90)
    )
    builder.add_extension(
        subject_alt_name(GeneralName.dns(san_name if san_name is not None else cn))
    )
    return builder


def fired(cert):
    return set(run_lints(cert).fired_lints())


class TestControlCharacterLints:
    def test_nul_in_cn(self):
        cert = build(cn="evil\x00entity.com", san_name="evil\x00entity.com").sign(KEY)
        assert "e_rfc_subject_dn_not_printable_characters" in fired(cert)

    def test_esc_in_o(self):
        cert = (
            build()
            .subject_attr(OID_ORGANIZATION_NAME, "Acme\x1bCorp")
            .sign(KEY)
        )
        assert "e_rfc_subject_dn_not_printable_characters" in fired(cert)

    def test_issuer_side(self):
        from repro.x509.name import Name

        issuer = Name.build([(OID_ORGANIZATION_NAME, "Bad\x02CA")])
        cert = build().issuer_name(issuer).sign(KEY)
        assert "e_rfc_issuer_dn_not_printable_characters" in fired(cert)

    def test_del_character(self):
        cert = (
            build().subject_attr(OID_ORGANIZATION_NAME, "Prepaid\x7fServices").sign(KEY)
        )
        found = fired(cert)
        assert "w_community_dn_del_character" in found


class TestWhitespaceLints:
    def test_leading(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, " Acme").sign(KEY)
        assert "w_community_subject_dn_leading_whitespace" in fired(cert)

    def test_trailing(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "Acme ").sign(KEY)
        assert "w_community_subject_dn_trailing_whitespace" in fired(cert)

    def test_clean_passes(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "Acme Corp").sign(KEY)
        found = fired(cert)
        assert "w_community_subject_dn_leading_whitespace" not in found
        assert "w_community_subject_dn_trailing_whitespace" not in found


class TestUnicodeCharacterLints:
    def test_bidi_control(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "www.‮lapyap‬.com").sign(KEY)
        assert "e_subject_dn_bidi_control_characters" in fired(cert)

    def test_invisible(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "Peddy​Shield").sign(KEY)
        assert "e_subject_dn_invisible_characters" in fired(cert)

    def test_noncharacter(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "bad﷐name").sign(KEY)
        assert "e_subject_cn_unicode_noncharacter" in fired(cert)

    def test_replacement_character(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "St�ri AG").sign(KEY)
        assert "w_community_dn_replacement_character" in fired(cert)

    def test_mixed_script(self):
        # Latin 'Acme' with Cyrillic 'е'.
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "Acmе Corp").sign(KEY)
        assert "w_subject_dn_mixed_script_confusable" in fired(cert)

    def test_normal_cjk_not_flagged_as_mixed(self):
        cert = build().subject_attr(OID_ORGANIZATION_NAME, "株式会社 中国銀行").sign(KEY)
        assert "w_subject_dn_mixed_script_confusable" not in fired(cert)


class TestPrintableStringBadalpha:
    def test_at_sign_in_printable(self):
        cert = (
            build()
            .subject_attr(OID_ORGANIZATION_NAME, "Acme@Corp", PRINTABLE_STRING)
            .sign(KEY)
        )
        assert "e_rfc_subject_printable_string_badalpha" in fired(cert)

    def test_compliant_printable_passes(self):
        cert = (
            build()
            .subject_attr(OID_ORGANIZATION_NAME, "Acme Corp (EU)", PRINTABLE_STRING)
            .sign(KEY)
        )
        assert "e_rfc_subject_printable_string_badalpha" not in fired(cert)


class TestDNSNameLints:
    def test_bad_character_in_label(self):
        cert = build(san_name="bad_label.example.com").sign(KEY)
        assert "e_cab_dns_bad_character_in_label" in fired(cert)

    def test_whitespace_in_name(self):
        cert = build(san_name="a.com DNS:b.com").sign(KEY)
        assert "e_cab_dns_name_contains_whitespace" in fired(cert)

    def test_wildcard_ok(self):
        cert = build(cn="*.example.com", san_name="*.example.com").sign(KEY)
        assert "e_cab_dns_bad_character_in_label" not in fired(cert)

    def test_malformed_idn(self):
        cert = build(cn="xn--999999999.com", san_name="xn--999999999.com").sign(KEY)
        assert "e_rfc_dns_idn_malformed_unicode" in fired(cert)

    def test_idn_unpermitted_unichar(self):
        # xn--www-hn0a decodes to LRM + "www" (paper P1.3 example).
        cert = build(cn="xn--www-hn0a.com", san_name="xn--www-hn0a.com").sign(KEY)
        found = fired(cert)
        assert "e_rfc_dns_idn_a2u_unpermitted_unichar" in found
        assert "e_rfc_dns_idn_malformed_unicode" not in found

    def test_valid_idn_passes(self):
        cert = build(cn="xn--mnchen-3ya.de", san_name="xn--mnchen-3ya.de").sign(KEY)
        found = fired(cert)
        assert "e_rfc_dns_idn_malformed_unicode" not in found
        assert "e_rfc_dns_idn_a2u_unpermitted_unichar" not in found


class TestSANCharacterLints:
    def test_unicode_dns_in_san(self):
        cert = build(cn="ok.example.com", san_name="中国.example.com").sign(KEY)
        assert "e_ext_san_dns_contain_unpermitted_unichar" in fired(cert)

    def test_email_control_chars(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.email("user\x01@example.com"),
                )
            )
            .sign(KEY)
        )
        assert "e_rfc_email_contains_control_characters" in fired(cert)

    def test_uri_control_chars(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.uri("http://a\x02b.com/x"),
                )
            )
            .sign(KEY)
        )
        assert "e_rfc_uri_contains_control_characters" in fired(cert)


class TestCRLDPAndPolicyLints:
    def test_crldp_control_characters(self):
        # The paper's revocation-subversion example.
        cert = (
            build()
            .add_extension(crl_distribution_points("http://ssl\x01test.com"))
            .sign(KEY)
        )
        assert "e_crldp_uri_contains_control_characters" in fired(cert)

    def test_clean_crldp_passes(self):
        cert = (
            build()
            .add_extension(crl_distribution_points("http://crl.example.com/r.crl"))
            .sign(KEY)
        )
        assert "e_crldp_uri_contains_control_characters" not in fired(cert)

    def test_explicit_text_controls(self):
        from repro.asn1.oid import OID_CP_DOMAIN_VALIDATED, OID_QT_UNOTICE
        from repro.x509.extensions import (
            PolicyInformation,
            PolicyQualifier,
            UserNotice,
            certificate_policies,
        )

        policy = PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            qualifiers=[
                PolicyQualifier(
                    OID_QT_UNOTICE, user_notice=UserNotice("bad\x00notice", UTF8_STRING)
                )
            ],
        )
        cert = build().add_extension(certificate_policies(policy)).sign(KEY)
        assert "e_ext_cp_explicit_text_control_characters" in fired(cert)
