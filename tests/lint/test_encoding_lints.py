"""Behavioural tests for the T3 Invalid Encoding lints."""

import datetime as dt

from repro.asn1.strings import (
    BMP_STRING,
    IA5_STRING,
    PRINTABLE_STRING,
    TELETEX_STRING,
    UNIVERSAL_STRING,
    UTF8_STRING,
)
from repro.asn1.oid import (
    OID_COUNTRY_NAME,
    OID_DOMAIN_COMPONENT,
    OID_EMAIL_ADDRESS,
    OID_JURISDICTION_COUNTRY,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_NAME,
    OID_SERIAL_NUMBER,
    OID_CP_DOMAIN_VALIDATED,
    OID_QT_CPS,
    OID_QT_UNOTICE,
)
from repro.lint.runner import run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import (
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    certificate_policies,
    subject_alt_name,
)
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=11)
WHEN = dt.datetime(2024, 6, 1)


def builder(cn="ok.example.com"):
    return (
        CertificateBuilder()
        .subject_cn(cn)
        .not_before(WHEN)
        .add_extension(subject_alt_name(GeneralName.dns(cn)))
    )


def fired(cert):
    return set(run_lints(cert).fired_lints())


class TestDirectoryStringFamily:
    def test_bmp_organization(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "Org", BMP_STRING).sign(KEY)
        assert "e_subject_organization_not_printable_or_utf8" in fired(cert)

    def test_teletex_cn(self):
        cert = (
            CertificateBuilder()
            .subject_cn("Störi AG", spec=TELETEX_STRING)
            .not_before(WHEN)
            .sign(KEY)
        )
        found = fired(cert)
        assert "e_subject_common_name_not_printable_or_utf8" in found
        assert "w_subject_dn_uses_teletexstring" in found

    def test_universal_locality(self):
        cert = builder().subject_attr(OID_LOCALITY_NAME, "City", UNIVERSAL_STRING).sign(KEY)
        found = fired(cert)
        assert "e_subject_locality_not_printable_or_utf8" in found
        assert "w_subject_dn_uses_universalstring" in found

    def test_utf8_passes(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "Örg", UTF8_STRING).sign(KEY)
        assert "e_subject_organization_not_printable_or_utf8" not in fired(cert)

    def test_printable_passes(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "Org", PRINTABLE_STRING).sign(KEY)
        assert "e_subject_organization_not_printable_or_utf8" not in fired(cert)

    def test_jurisdiction_country_utf8_flagged(self):
        # PrintableString-only attribute encoded as UTF8String.
        cert = builder().subject_attr(OID_JURISDICTION_COUNTRY, "DE", UTF8_STRING).sign(KEY)
        assert "e_subject_jurisdiction_country_not_printable" in fired(cert)


class TestPrintableOnlyAttrs:
    def test_country_utf8(self):
        cert = builder().subject_attr(OID_COUNTRY_NAME, "DE", UTF8_STRING).sign(KEY)
        assert "e_rfc_subject_country_not_printable" in fired(cert)

    def test_serial_utf8(self):
        cert = builder().subject_attr(OID_SERIAL_NUMBER, "12345", UTF8_STRING).sign(KEY)
        assert "e_subject_dn_serial_number_not_printable" in fired(cert)

    def test_dc_must_be_ia5(self):
        cert = builder().subject_attr(OID_DOMAIN_COMPONENT, "example", UTF8_STRING).sign(KEY)
        assert "e_subject_dc_not_ia5" in fired(cert)

    def test_email_must_be_ia5(self):
        cert = builder().subject_attr(OID_EMAIL_ADDRESS, "a@b.c", PRINTABLE_STRING).sign(KEY)
        assert "e_subject_email_not_ia5" in fired(cert)

    def test_compliant_country_passes(self):
        cert = builder().subject_attr(OID_COUNTRY_NAME, "DE", PRINTABLE_STRING).sign(KEY)
        assert "e_rfc_subject_country_not_printable" not in fired(cert)


class TestGeneralNameEncodings:
    def test_san_dns_utf8_bytes(self):
        cert = (
            CertificateBuilder()
            .subject_cn("中国.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(GeneralName.dns("中国.example.com", spec=UTF8_STRING))
            )
            .sign(KEY)
        )
        assert "e_ext_san_dns_not_ia5string" in fired(cert)

    def test_san_email_non_ascii(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.email("usér@example.com", spec=UTF8_STRING),
                )
            )
            .sign(KEY)
        )
        assert "e_ext_san_rfc822_not_ia5string" in fired(cert)

    def test_crldp_non_ascii(self):
        from repro.x509.extensions import crl_distribution_points

        cert = (
            builder()
            .add_extension(crl_distribution_points("http://crl.例子.com/r.crl"))
            .sign(KEY)
        )
        assert "e_ext_crldp_uri_not_ia5string" in fired(cert)

    def test_ascii_san_passes(self):
        cert = builder().sign(KEY)
        assert "e_ext_san_dns_not_ia5string" not in fired(cert)


class TestCertificatePolicies:
    def _policy_cert(self, spec):
        policy = PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            qualifiers=[
                PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice("Notice", spec))
            ],
        )
        return builder().add_extension(certificate_policies(policy)).sign(KEY)

    def test_bmp_explicit_text_warns(self):
        cert = self._policy_cert(BMP_STRING)
        report = run_lints(cert)
        assert "w_rfc_ext_cp_explicit_text_not_utf8" in report.fired_lints()
        assert report.has_warning_level()

    def test_ia5_explicit_text_errors(self):
        cert = self._policy_cert(IA5_STRING)
        found = fired(cert)
        assert "e_rfc_ext_cp_explicit_text_ia5" in found
        # IA5 is carved out of the SHOULD-level lint.
        assert "w_rfc_ext_cp_explicit_text_not_utf8" not in found

    def test_utf8_explicit_text_passes(self):
        cert = self._policy_cert(UTF8_STRING)
        found = fired(cert)
        assert "w_rfc_ext_cp_explicit_text_not_utf8" not in found
        assert "e_rfc_ext_cp_explicit_text_ia5" not in found

    def test_cps_uri_non_ascii(self):
        policy = PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            qualifiers=[PolicyQualifier(OID_QT_CPS, cps_uri="http://cps.例子.com")],
        )
        cert = builder().add_extension(certificate_policies(policy)).sign(KEY)
        assert "e_ext_cp_cps_uri_not_ia5string" in fired(cert)


class TestInternationalizedEmail:
    @staticmethod
    def _mailbox_cert(mailbox):
        return (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.smtp_utf8_mailbox(mailbox),
                )
            )
            .sign(KEY)
        )

    def test_smtp_utf8_ascii_only_flagged(self):
        cert = self._mailbox_cert("plain@example.com")
        assert "e_smtp_utf8_mailbox_ascii_only" in fired(cert)

    def test_smtp_utf8_unicode_local_ok(self):
        cert = self._mailbox_cert("用户@example.com")
        found = fired(cert)
        assert "e_smtp_utf8_mailbox_ascii_only" not in found
        assert "e_smtp_utf8_mailbox_not_utf8string" not in found

    def test_rfc822_non_ascii_local_part(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.email("usér@example.com", spec=UTF8_STRING),
                )
            )
            .sign(KEY)
        )
        assert "e_rfc822_name_contains_non_ascii_local_part" in fired(cert)


class TestUndecodableBytes:
    def test_invalid_utf8_in_dn(self):
        cert = (
            builder()
            .subject_attr(OID_ORGANIZATION_NAME, "", UTF8_STRING, raw=b"\xc3\x28")
            .sign(KEY)
        )
        assert "e_dn_attribute_undecodable_bytes" in fired(cert)

    def test_valid_bytes_pass(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "fine").sign(KEY)
        assert "e_dn_attribute_undecodable_bytes" not in fired(cert)
