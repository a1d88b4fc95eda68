"""Reachability: every one of the 95 lints fires on a crafted cert.

A lint that can never fire is dead weight; this table-driven test
builds, for each registered lint, a certificate that violates exactly
that rule and asserts the lint reports it.
"""

import datetime as dt

import pytest

from repro.asn1.strings import (
    BMP_STRING,
    IA5_STRING,
    PRINTABLE_STRING,
    TELETEX_STRING,
    UNIVERSAL_STRING,
    UTF8_STRING,
)
import importlib

# The package exports an ``oid()`` constructor that shadows the module
# attribute, so resolve the submodule explicitly.
O = importlib.import_module("repro.asn1.oid")
from repro.lint.framework import REGISTRY
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import (
    AccessDescription,
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    authority_info_access,
    certificate_policies,
    crl_distribution_points,
    subject_alt_name,
    subject_info_access,
)
from repro.x509.general_name import GeneralName, GeneralNameKind
from repro.x509.keys import generate_keypair
from repro.x509.name import Name

KEY = generate_keypair(seed=151)
WHEN = dt.datetime(2024, 8, 1)


def base(cn="ok.example.com", san=True):
    builder = CertificateBuilder().subject_cn(cn).not_before(WHEN)
    if san:
        builder.add_extension(subject_alt_name(GeneralName.dns(cn)))
    return builder


def with_attr(oid, value, spec=UTF8_STRING, raw=None):
    return base().subject_attr(oid, value, spec, raw=raw)


def with_issuer_attr(oid, value, spec):
    issuer = Name()
    from repro.x509.name import AttributeTypeAndValue, RelativeDistinguishedName

    issuer.rdns.append(
        RelativeDistinguishedName([AttributeTypeAndValue(oid, value, spec)])
    )
    return base().issuer_name(issuer)


def with_policy(spec=UTF8_STRING, text="Notice", cps=None):
    qualifiers = []
    if cps is not None:
        qualifiers.append(PolicyQualifier(O.OID_QT_CPS, cps_uri=cps))
    else:
        qualifiers.append(
            PolicyQualifier(O.OID_QT_UNOTICE, user_notice=UserNotice(text, spec))
        )
    return base().add_extension(
        certificate_policies(PolicyInformation(O.OID_CP_DOMAIN_VALIDATED, qualifiers))
    )


def with_san(*names):
    return (
        CertificateBuilder()
        .subject_cn("ok.example.com")
        .not_before(WHEN)
        .add_extension(subject_alt_name(*names))
    )


def with_ian(*names):
    from repro.x509.extensions import issuer_alt_name

    return base().add_extension(issuer_alt_name(*names))


#: lint name -> builder producing a violating certificate.
VIOLATORS = {
    # ----- T1 Invalid Character ------------------------------------------------
    "e_rfc_subject_dn_not_printable_characters": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Evil\x00Org"
    ),
    "e_rfc_issuer_dn_not_printable_characters": lambda: with_issuer_attr(
        O.OID_ORGANIZATION_NAME, "Bad\x01CA", UTF8_STRING
    ),
    "w_community_subject_dn_leading_whitespace": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, " Org"
    ),
    "w_community_subject_dn_trailing_whitespace": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Org "
    ),
    "w_community_dn_del_character": lambda: with_attr(O.OID_ORGANIZATION_NAME, "Pre\x7fpaid"),
    "w_community_dn_replacement_character": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "St�ri AG"
    ),
    "e_subject_dn_bidi_control_characters": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "www.‮lapyap‬.com"
    ),
    "e_subject_dn_invisible_characters": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Peddy​Shield"
    ),
    "e_subject_cn_unicode_noncharacter": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "bad﷐name"
    ),
    "w_subject_dn_mixed_script_confusable": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Acmе Corp"  # Cyrillic е
    ),
    "e_rfc_subject_printable_string_badalpha": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Org@Home", PRINTABLE_STRING
    ),
    "e_cab_dns_bad_character_in_label": lambda: base(cn="bad_label.example.com"),
    "e_cab_dns_name_contains_whitespace": lambda: base(cn="a.com b.com"),
    "e_rfc_dns_idn_malformed_unicode": lambda: base(cn="xn--99999999999.com"),
    "e_rfc_dns_idn_a2u_unpermitted_unichar": lambda: base(cn="xn--www-hn0a.com"),
    "e_ext_san_dns_contain_unpermitted_unichar": lambda: base(cn="te中st.com"),
    "e_ext_san_rfc822_contain_unpermitted_unichar": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.email("usér@x.com", spec=UTF8_STRING)
    ),
    "e_ext_san_uri_contain_unpermitted_unichar": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.uri("http://é.com", spec=UTF8_STRING)
    ),
    "e_rfc_email_contains_control_characters": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.email("a\x01@x.com")
    ),
    "e_rfc_uri_contains_control_characters": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.uri("http://a\x02.com/")
    ),
    "e_crldp_uri_contains_control_characters": lambda: base().add_extension(
        crl_distribution_points("http://ssl\x01test.com")
    ),
    "e_ext_cp_explicit_text_control_characters": lambda: with_policy(
        UTF8_STRING, "bad\x00notice"
    ),
    # ----- T2 Bad Normalization ---------------------------------------------
    "w_rfc_utf8_string_not_nfc": lambda: with_attr(O.OID_ORGANIZATION_NAME, "Café"),
    "e_rfc_dns_idn_u_label_not_nfc": lambda: base(
        cn="xn--" + __import__("repro.uni.punycode", fromlist=["encode"]).encode("café") + ".com"
    ),
    # Encoding an uppercase U-label yields digits for 'Ü' that differ
    # from the canonical lowercase form, so the round trip mismatches.
    "e_rfc_dns_idn_alabel_roundtrip_mismatch": lambda: base(
        cn="xn--"
        + __import__("repro.uni.punycode", fromlist=["encode"]).encode("MÜNCHEN").lower()
        + ".de"
    ),
    "e_smtp_utf8_mailbox_not_nfc": lambda: with_san(
        GeneralName.dns("ok.example.com"),
        GeneralName.smtp_utf8_mailbox("usér@example.com"),
    ),
    # ----- T3 Illegal Format ----------------------------------------------------
    "e_subject_common_name_max_length": lambda: base(cn="a" * 70),
    "e_subject_organization_name_max_length": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "x" * 65
    ),
    "e_subject_locality_name_max_length": lambda: with_attr(O.OID_LOCALITY_NAME, "x" * 129),
    "e_subject_state_name_max_length": lambda: with_attr(O.OID_STATE_OR_PROVINCE, "x" * 129),
    "e_subject_serial_number_max_length": lambda: with_attr(
        O.OID_SERIAL_NUMBER, "1" * 65, PRINTABLE_STRING
    ),
    "e_subject_country_not_two_letter": lambda: with_attr(
        O.OID_COUNTRY_NAME, "Germany", PRINTABLE_STRING
    ),
    "e_subject_country_not_uppercase": lambda: with_attr(
        O.OID_COUNTRY_NAME, "de", PRINTABLE_STRING
    ),
    "e_dns_label_too_long": lambda: base(cn="b" * 64 + ".com"),
    "e_dns_name_too_long": lambda: base(cn=".".join(["a" * 60] * 5) + ".com"),
    "e_dns_label_empty": lambda: base(cn="a..example.com"),
    "e_dns_label_hyphen_at_edge": lambda: base(cn="-lead.example.com"),
    "e_san_dns_name_includes_port_or_path": lambda: base(cn="host.example.com:8443"),
    "e_rfc822_invalid_syntax": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.email("not-an-email")
    ),
    "e_uri_invalid_scheme": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.uri("noscheme")
    ),
    "e_subject_empty_attribute_value": lambda: with_attr(O.OID_ORGANIZATION_NAME, ""),
    "e_ext_san_empty_name": lambda: CertificateBuilder()
    .subject_cn("ok.example.com")
    .not_before(WHEN)
    .add_extension(subject_alt_name()),
    "e_rfc_ext_cp_explicit_text_too_long": lambda: with_policy(UTF8_STRING, "x" * 201),
    # ----- T3 Invalid Structure / Discouraged -------------------------------
    "w_cab_subject_common_name_not_in_san": lambda: base(cn="cn.example.com", san=False)
    .add_extension(subject_alt_name(GeneralName.dns("other.example.com"))),
    "e_subject_dn_duplicate_attribute": lambda: base().subject_cn("ok.example.com"),
    "w_cab_subject_contain_extra_common_name": lambda: base().subject_cn("ok.example.com"),
    "w_ext_san_uri_discouraged": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.uri("https://ok.example.com/")
    ),
    # ----- T3 Invalid Encoding ---------------------------------------------------
    "e_rfc_subject_country_not_printable": lambda: with_attr(O.OID_COUNTRY_NAME, "DE"),
    "e_issuer_dn_country_not_printable": lambda: with_issuer_attr(
        O.OID_COUNTRY_NAME, "DE", UTF8_STRING
    ),
    "e_subject_dn_serial_number_not_printable": lambda: with_attr(O.OID_SERIAL_NUMBER, "123"),
    "e_subject_dc_not_ia5": lambda: with_attr(O.OID_DOMAIN_COMPONENT, "example"),
    "e_subject_email_not_ia5": lambda: with_attr(
        O.OID_EMAIL_ADDRESS, "a@b.c", PRINTABLE_STRING
    ),
    "w_subject_dn_uses_teletexstring": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Org", TELETEX_STRING
    ),
    "w_subject_dn_uses_bmpstring": lambda: with_attr(O.OID_ORGANIZATION_NAME, "Org", BMP_STRING),
    "w_subject_dn_uses_universalstring": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "Org", UNIVERSAL_STRING
    ),
    "w_issuer_dn_uses_teletexstring": lambda: with_issuer_attr(
        O.OID_ORGANIZATION_NAME, "CA Org", TELETEX_STRING
    ),
    "e_subject_dn_qualifier_not_printable": lambda: with_attr(O.OID_DN_QUALIFIER, "q"),
    "e_ext_san_dns_not_ia5string": lambda: with_san(
        GeneralName.dns("中国.example.com", spec=UTF8_STRING)
    ),
    "e_ext_san_rfc822_not_ia5string": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.email("usér@x.com", spec=UTF8_STRING)
    ),
    "e_ext_san_uri_not_ia5string": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.uri("http://例.com/", spec=UTF8_STRING)
    ),
    "e_ext_ian_dns_not_ia5string": lambda: with_ian(
        GeneralName.dns("中国.example.com", spec=UTF8_STRING)
    ),
    "e_ext_ian_rfc822_not_ia5string": lambda: with_ian(
        GeneralName.email("usér@x.com", spec=UTF8_STRING)
    ),
    "e_ext_aia_location_not_ia5string": lambda: base().add_extension(
        authority_info_access(
            AccessDescription(
                O.OID_AD_CA_ISSUERS, GeneralName.uri("http://ca.例子.com/", spec=UTF8_STRING)
            )
        )
    ),
    "e_ext_sia_location_not_ia5string": lambda: base().add_extension(
        subject_info_access(
            AccessDescription(
                O.OID_AD_CA_REPOSITORY, GeneralName.uri("http://例.com/", spec=UTF8_STRING)
            )
        )
    ),
    "e_ext_crldp_uri_not_ia5string": lambda: base().add_extension(
        crl_distribution_points("http://crl.例子.com/r.crl")
    ),
    "w_rfc_ext_cp_explicit_text_not_utf8": lambda: with_policy(BMP_STRING),
    "e_rfc_ext_cp_explicit_text_ia5": lambda: with_policy(IA5_STRING),
    "e_ext_cp_cps_uri_not_ia5string": lambda: with_policy(cps="http://cps.例子.com"),
    "e_smtp_utf8_mailbox_not_utf8string": lambda: _smtp_raw_bmp(),
    "e_smtp_utf8_mailbox_ascii_only": lambda: with_san(
        GeneralName.dns("ok.example.com"),
        GeneralName.smtp_utf8_mailbox("plain@example.com"),
    ),
    "e_rfc822_name_contains_non_ascii_local_part": lambda: with_san(
        GeneralName.dns("ok.example.com"), GeneralName.email("usér@x.com", spec=UTF8_STRING)
    ),
    "e_dn_attribute_undecodable_bytes": lambda: with_attr(
        O.OID_ORGANIZATION_NAME, "", raw=b"\xc3\x28"
    ),
}

# The *_not_printable_or_utf8 family (subject + jurisdiction + issuer).
_FAMILY = {
    "e_subject_common_name_not_printable_or_utf8": (O.OID_COMMON_NAME, False),
    "e_subject_organization_not_printable_or_utf8": (O.OID_ORGANIZATION_NAME, False),
    "e_subject_ou_not_printable_or_utf8": (O.OID_ORGANIZATIONAL_UNIT, False),
    "e_subject_locality_not_printable_or_utf8": (O.OID_LOCALITY_NAME, False),
    "e_subject_state_not_printable_or_utf8": (O.OID_STATE_OR_PROVINCE, False),
    "e_subject_street_not_printable_or_utf8": (O.OID_STREET_ADDRESS, False),
    "e_subject_postal_code_not_printable_or_utf8": (O.OID_POSTAL_CODE, False),
    "e_subject_given_name_not_printable_or_utf8": (O.OID_GIVEN_NAME, False),
    "e_subject_surname_not_printable_or_utf8": (O.OID_SURNAME, False),
    "e_subject_title_not_printable_or_utf8": (O.OID_TITLE, False),
    "e_subject_pseudonym_not_printable_or_utf8": (O.OID_PSEUDONYM, False),
    "e_subject_business_category_not_printable_or_utf8": (O.OID_BUSINESS_CATEGORY, False),
    "e_subject_org_identifier_not_printable_or_utf8": (O.OID_ORGANIZATION_IDENTIFIER, False),
    "e_subject_uid_not_printable_or_utf8": (O.OID_USER_ID, False),
    "e_subject_unstructured_name_not_printable_or_utf8": (O.OID_UNSTRUCTURED_NAME, False),
    "e_subject_jurisdiction_locality_not_printable_or_utf8": (O.OID_JURISDICTION_LOCALITY, False),
    "e_subject_jurisdiction_state_not_printable_or_utf8": (O.OID_JURISDICTION_STATE, False),
    "e_subject_jurisdiction_country_not_printable": (O.OID_JURISDICTION_COUNTRY, False),
    "e_issuer_common_name_not_printable_or_utf8": (O.OID_COMMON_NAME, True),
    "e_issuer_organization_not_printable_or_utf8": (O.OID_ORGANIZATION_NAME, True),
    "e_issuer_ou_not_printable_or_utf8": (O.OID_ORGANIZATIONAL_UNIT, True),
    "e_issuer_locality_not_printable_or_utf8": (O.OID_LOCALITY_NAME, True),
    "e_issuer_state_not_printable_or_utf8": (O.OID_STATE_OR_PROVINCE, True),
}

for _name, (_oid, _issuer_side) in _FAMILY.items():
    if _issuer_side:
        VIOLATORS[_name] = (
            lambda oid=_oid: with_issuer_attr(oid, "Val", BMP_STRING)
        )
    else:
        VIOLATORS[_name] = lambda oid=_oid: with_attr(oid, "Val", BMP_STRING)


def _smtp_raw_bmp():
    """An otherName SmtpUTF8Mailbox whose inner value is a BMPString."""
    from repro.asn1.der import Element, explicit
    from repro.asn1.strings import BMP_STRING as BMP
    from repro.asn1.tags import Tag
    from repro.asn1.oid import OID_ON_SMTP_UTF8_MAILBOX

    inner = explicit(
        0, Element.primitive(Tag.universal(30), BMP.encode("usér@x.com"))
    )
    gn = GeneralName(
        kind=GeneralNameKind.OTHER_NAME,
        value="usér@x.com",
        raw=inner.encode(),
        other_name_oid=OID_ON_SMTP_UTF8_MAILBOX,
    )
    return with_san(GeneralName.dns("ok.example.com"), gn)


@pytest.mark.parametrize("lint_name", sorted(lint.metadata.name for lint in REGISTRY.all()))
def test_lint_reachable(lint_name):
    assert lint_name in VIOLATORS, f"no violating builder for {lint_name}"
    cert = VIOLATORS[lint_name]().sign(KEY)
    lint = REGISTRY.get(lint_name)
    result = lint.run(cert)
    assert result.is_finding, (
        f"{lint_name} did not fire (status={result.status}, details={result.details!r})"
    )


def test_violator_table_covers_registry():
    registered = {lint.metadata.name for lint in REGISTRY.all()}
    assert set(VIOLATORS) == registered
