"""Invalid Encoding lints (T3) — 48 lints, 37 of them new.

The dominant noncompliance class in the paper (60.5% of NC Unicerts):
attributes encoded with ASN.1 string types the standards do not permit,
e.g. BMPString CommonNames, TeletexString organizations, or non-IA5
octets inside GeneralName fields.
"""

from __future__ import annotations

from ..asn1.strings import IA5_STRING, PRINTABLE_STRING, UTF8_STRING
from ..asn1.oid import (
    OID_BUSINESS_CATEGORY,
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_DN_QUALIFIER,
    OID_DOMAIN_COMPONENT,
    OID_EMAIL_ADDRESS,
    OID_GIVEN_NAME,
    OID_JURISDICTION_COUNTRY,
    OID_JURISDICTION_LOCALITY,
    OID_JURISDICTION_STATE,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_IDENTIFIER,
    OID_ORGANIZATIONAL_UNIT,
    OID_ORGANIZATION_NAME,
    OID_POSTAL_CODE,
    OID_PSEUDONYM,
    OID_SERIAL_NUMBER,
    OID_STATE_OR_PROVINCE,
    OID_STREET_ADDRESS,
    OID_SURNAME,
    OID_TITLE,
    OID_UNSTRUCTURED_NAME,
    OID_USER_ID,
)
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralNameKind, mailbox_encoding_problem
from .compiled import APPLIES_NONEMPTY, ScanSpec
from .framework import (
    CABF_BR_DATE,
    NoncomplianceType,
    RFC5280_DATE,
    RFC8399_DATE,
    RFC9598_DATE,
    Severity,
    Source,
)
from .helpers import (
    dn_encoding_lint,
    gn_ia5_encoding_lint,
    ian_names,
    register_lint,
    san_names,
    subject_attrs,
)

# ---------------------------------------------------------------------------
# The *_not_printable_or_utf8 family (paper's new lints; Appendix D)
# ---------------------------------------------------------------------------

_SUBJECT_DIRECTORY_STRING_ATTRS = [
    ("e_subject_common_name_not_printable_or_utf8", OID_COMMON_NAME, "Subject CN"),
    ("e_subject_organization_not_printable_or_utf8", OID_ORGANIZATION_NAME, "Subject O"),
    ("e_subject_ou_not_printable_or_utf8", OID_ORGANIZATIONAL_UNIT, "Subject OU"),
    ("e_subject_locality_not_printable_or_utf8", OID_LOCALITY_NAME, "Subject L"),
    ("e_subject_state_not_printable_or_utf8", OID_STATE_OR_PROVINCE, "Subject ST"),
    ("e_subject_street_not_printable_or_utf8", OID_STREET_ADDRESS, "Subject street"),
    ("e_subject_postal_code_not_printable_or_utf8", OID_POSTAL_CODE, "Subject postalCode"),
    ("e_subject_given_name_not_printable_or_utf8", OID_GIVEN_NAME, "Subject givenName"),
    ("e_subject_surname_not_printable_or_utf8", OID_SURNAME, "Subject surname"),
    ("e_subject_title_not_printable_or_utf8", OID_TITLE, "Subject title"),
    ("e_subject_pseudonym_not_printable_or_utf8", OID_PSEUDONYM, "Subject pseudonym"),
    (
        "e_subject_business_category_not_printable_or_utf8",
        OID_BUSINESS_CATEGORY,
        "Subject businessCategory",
    ),
    (
        "e_subject_org_identifier_not_printable_or_utf8",
        OID_ORGANIZATION_IDENTIFIER,
        "Subject organizationIdentifier",
    ),
    ("e_subject_uid_not_printable_or_utf8", OID_USER_ID, "Subject UID"),
    (
        "e_subject_unstructured_name_not_printable_or_utf8",
        OID_UNSTRUCTURED_NAME,
        "Subject unstructuredName",
    ),
]

for _name, _oid, _label in _SUBJECT_DIRECTORY_STRING_ATTRS:
    dn_encoding_lint(
        name=_name,
        oid=_oid,
        attr_label=_label,
        effective_date=RFC5280_DATE,
        new=True,
    )

# EV jurisdiction attributes (CA/B EV Guidelines 9.2.4).
dn_encoding_lint(
    name="e_subject_jurisdiction_locality_not_printable_or_utf8",
    oid=OID_JURISDICTION_LOCALITY,
    attr_label="Subject jurisdictionLocality",
    source=Source.CABF_EV,
    citation="CA/B EV Guidelines 9.2.4",
    effective_date=CABF_BR_DATE,
    new=True,
)
dn_encoding_lint(
    name="e_subject_jurisdiction_state_not_printable_or_utf8",
    oid=OID_JURISDICTION_STATE,
    attr_label="Subject jurisdictionStateOrProvince",
    source=Source.CABF_EV,
    citation="CA/B EV Guidelines 9.2.4",
    effective_date=CABF_BR_DATE,
    new=True,
)
dn_encoding_lint(
    name="e_subject_jurisdiction_country_not_printable",
    oid=OID_JURISDICTION_COUNTRY,
    attr_label="Subject jurisdictionCountry",
    allowed=(PRINTABLE_STRING,),
    source=Source.CABF_EV,
    citation="CA/B EV Guidelines 9.2.4",
    effective_date=CABF_BR_DATE,
    new=True,
)

# Issuer-side family.
_ISSUER_DIRECTORY_STRING_ATTRS = [
    ("e_issuer_common_name_not_printable_or_utf8", OID_COMMON_NAME, "Issuer CN"),
    ("e_issuer_organization_not_printable_or_utf8", OID_ORGANIZATION_NAME, "Issuer O"),
    ("e_issuer_ou_not_printable_or_utf8", OID_ORGANIZATIONAL_UNIT, "Issuer OU"),
    ("e_issuer_locality_not_printable_or_utf8", OID_LOCALITY_NAME, "Issuer L"),
    ("e_issuer_state_not_printable_or_utf8", OID_STATE_OR_PROVINCE, "Issuer ST"),
]

for _name, _oid, _label in _ISSUER_DIRECTORY_STRING_ATTRS:
    dn_encoding_lint(
        name=_name,
        oid=_oid,
        attr_label=_label,
        issuer=True,
        effective_date=RFC5280_DATE,
        new=True,
    )

# dnQualifier is PrintableString-only (RFC 5280 Appendix A).
dn_encoding_lint(
    name="e_subject_dn_qualifier_not_printable",
    oid=OID_DN_QUALIFIER,
    attr_label="Subject dnQualifier",
    allowed=(PRINTABLE_STRING,),
    citation="RFC 5280 Appendix A (dnQualifier)",
    effective_date=RFC5280_DATE,
    new=True,
)

# ---------------------------------------------------------------------------
# PrintableString-only attributes (existing Zlint-style lints)
# ---------------------------------------------------------------------------

dn_encoding_lint(
    name="e_rfc_subject_country_not_printable",
    oid=OID_COUNTRY_NAME,
    attr_label="Subject C",
    allowed=(PRINTABLE_STRING,),
    citation="RFC 5280 Appendix A (countryName PrintableString)",
    effective_date=RFC5280_DATE,
    new=False,
)
dn_encoding_lint(
    name="e_issuer_dn_country_not_printable",
    oid=OID_COUNTRY_NAME,
    attr_label="Issuer C",
    allowed=(PRINTABLE_STRING,),
    issuer=True,
    citation="RFC 5280 Appendix A (countryName PrintableString)",
    effective_date=RFC5280_DATE,
    new=False,
)
dn_encoding_lint(
    name="e_subject_dn_serial_number_not_printable",
    oid=OID_SERIAL_NUMBER,
    attr_label="Subject serialNumber",
    allowed=(PRINTABLE_STRING,),
    citation="RFC 5280 Appendix A (serialNumber PrintableString)",
    effective_date=RFC5280_DATE,
    new=False,
)
dn_encoding_lint(
    name="e_subject_dc_not_ia5",
    oid=OID_DOMAIN_COMPONENT,
    attr_label="Subject domainComponent",
    allowed=(IA5_STRING,),
    citation="RFC 4519 2.4 (dc IA5String)",
    effective_date=RFC5280_DATE,
    new=False,
)
dn_encoding_lint(
    name="e_subject_email_not_ia5",
    oid=OID_EMAIL_ADDRESS,
    attr_label="Subject emailAddress",
    allowed=(IA5_STRING,),
    citation="RFC 5280 Appendix A (emailAddress IA5String)",
    effective_date=RFC5280_DATE,
    new=False,
)

# ---------------------------------------------------------------------------
# Deprecated DirectoryString alternatives (SHOULD NOT per RFC 5280)
# ---------------------------------------------------------------------------


def _make_deprecated_type_lint(name, type_name, issuer, new):
    def applies(cert: Certificate) -> bool:
        target = cert.issuer if issuer else cert.subject
        return not target.is_empty

    def check(cert: Certificate) -> tuple[bool, str]:
        target = cert.issuer if issuer else cert.subject
        for attr in target.attributes():
            if attr.spec.name == type_name:
                return False, f"{attr.short_name} uses deprecated {type_name}"
        return True, ""

    side = "Issuer" if issuer else "Subject"
    register_lint(
        name=name,
        description=f"{side} DN SHOULD NOT use {type_name}",
        citation="RFC 5280 4.1.2.4 (new attributes MUST use UTF8String)",
        source=Source.RFC5280,
        severity=Severity.WARN,
        nc_type=NoncomplianceType.INVALID_ENCODING,
        effective_date=RFC5280_DATE,
        new=new,
        applies=applies,
        check=check,
        # applies() keys on a nonempty DN, not on the deprecated type
        # being present, so the scope is the whole DN side.
        scan=ScanSpec("issuer" if issuer else "subject", ("SPEC_" + type_name,)),
    )


_make_deprecated_type_lint("w_subject_dn_uses_teletexstring", "TeletexString", False, False)
_make_deprecated_type_lint("w_subject_dn_uses_bmpstring", "BMPString", False, False)
_make_deprecated_type_lint("w_subject_dn_uses_universalstring", "UniversalString", False, False)
_make_deprecated_type_lint("w_issuer_dn_uses_teletexstring", "TeletexString", True, False)

# ---------------------------------------------------------------------------
# GeneralName IA5String lints
# ---------------------------------------------------------------------------

#: A GeneralName fails IA5 only with a non-ASCII or undecodable value.
_IA5_ATOMS = ("NON_ASCII", "DECODE_BAD")

gn_ia5_encoding_lint(
    name="e_ext_san_dns_not_ia5string",
    label="SAN DNSName",
    extractor=lambda cert: san_names(cert, GeneralNameKind.DNS_NAME),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("san_dns", _IA5_ATOMS),
)
gn_ia5_encoding_lint(
    name="e_ext_san_rfc822_not_ia5string",
    label="SAN RFC822Name",
    extractor=lambda cert: san_names(cert, GeneralNameKind.RFC822_NAME),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("san_email", _IA5_ATOMS),
)
gn_ia5_encoding_lint(
    name="e_ext_san_uri_not_ia5string",
    label="SAN URI",
    extractor=lambda cert: san_names(cert, GeneralNameKind.URI),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("san_uri", _IA5_ATOMS),
)
gn_ia5_encoding_lint(
    name="e_ext_ian_dns_not_ia5string",
    label="IAN DNSName",
    extractor=lambda cert: ian_names(cert, GeneralNameKind.DNS_NAME),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("ian_dns", _IA5_ATOMS),
)
gn_ia5_encoding_lint(
    name="e_ext_ian_rfc822_not_ia5string",
    label="IAN RFC822Name",
    extractor=lambda cert: ian_names(cert, GeneralNameKind.RFC822_NAME),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("ian_email", _IA5_ATOMS),
)


def _uri_names(ia):
    if ia is None:
        return []
    return [d.location for d in ia.descriptions if d.location.kind is GeneralNameKind.URI]


gn_ia5_encoding_lint(
    name="e_ext_aia_location_not_ia5string",
    label="AIA accessLocation",
    extractor=lambda cert: _uri_names(cert.aia),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("aia_uris", _IA5_ATOMS, mode=APPLIES_NONEMPTY),
)
gn_ia5_encoding_lint(
    name="e_ext_sia_location_not_ia5string",
    label="SIA accessLocation",
    extractor=lambda cert: _uri_names(cert.sia),
    effective_date=RFC5280_DATE,
    scan=ScanSpec("sia_uris", _IA5_ATOMS, mode=APPLIES_NONEMPTY),
)


def _crldp_uris(cert: Certificate):
    dps = cert.crl_distribution_points
    if dps is None:
        return []
    return [gn for point in dps.points for gn in point.full_names]


gn_ia5_encoding_lint(
    name="e_ext_crldp_uri_not_ia5string",
    label="CRLDistributionPoints URI",
    extractor=_crldp_uris,
    effective_date=RFC5280_DATE,
    scan=ScanSpec("crldp", _IA5_ATOMS, mode=APPLIES_NONEMPTY),
)

# ---------------------------------------------------------------------------
# CertificatePolicies explicitText / cpsURI encodings
# ---------------------------------------------------------------------------


def _has_explicit_text(cert: Certificate) -> bool:
    policies = cert.policies
    return policies is not None and bool(policies.explicit_texts)


def _check_explicit_text_not_utf8(cert: Certificate) -> tuple[bool, str]:
    for tag, text, _ok in cert.policies.explicit_texts:
        # DisplayText SHOULD be UTF8String (RFC 6818 updates 5280).
        if tag not in (12,):  # UTF8String tag
            if tag == 22:
                continue  # IA5String handled by the MUST-level lint below.
            return False, f"explicitText uses tag {tag}, SHOULD be UTF8String"
    return True, ""


register_lint(
    name="w_rfc_ext_cp_explicit_text_not_utf8",
    description="CertificatePolicies explicitText SHOULD use UTF8String",
    citation="RFC 6818 3 (updating RFC 5280 4.2.1.4)",
    source=Source.RFC6818,
    severity=Severity.WARN,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC5280_DATE,
    new=False,
    applies=_has_explicit_text,
    check=_check_explicit_text_not_utf8,
    scan=ScanSpec("cp_text", ("CP_TAG_OTHER",), mode=APPLIES_NONEMPTY),
)


def _check_explicit_text_ia5(cert: Certificate) -> tuple[bool, str]:
    for tag, _text, _ok in cert.policies.explicit_texts:
        if tag == 22:  # IA5String
            return False, "explicitText MUST NOT be IA5String"
    return True, ""


register_lint(
    name="e_rfc_ext_cp_explicit_text_ia5",
    description="CertificatePolicies explicitText MUST NOT use IA5String",
    citation="RFC 5280 4.2.1.4 (DisplayText excludes IA5String)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC5280_DATE,
    new=False,
    applies=_has_explicit_text,
    check=_check_explicit_text_ia5,
    scan=ScanSpec("cp_text", ("CP_TAG_IA5",), mode=APPLIES_NONEMPTY),
)


def _has_cps_uri(cert: Certificate) -> bool:
    policies = cert.policies
    return policies is not None and bool(policies.cps_uris)


def _check_cps_uri_ia5(cert: Certificate) -> tuple[bool, str]:
    for uri in cert.policies.cps_uris:
        if any(ord(ch) > 0x7F for ch in uri):
            return False, f"cPSuri contains non-IA5 octets: {uri!r}"
    return True, ""


register_lint(
    name="e_ext_cp_cps_uri_not_ia5string",
    description="CertificatePolicies cPSuri must be IA5String",
    citation="RFC 5280 4.2.1.4 (CPSuri ::= IA5String)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC5280_DATE,
    new=True,
    applies=_has_cps_uri,
    check=_check_cps_uri_ia5,
    scan=ScanSpec("cps_uris", ("NON_ASCII",), mode=APPLIES_NONEMPTY),
)

# ---------------------------------------------------------------------------
# Internationalized email (RFC 8398/9598) lints
# ---------------------------------------------------------------------------


def _smtp_utf8_names(cert: Certificate):
    from ..asn1.oid import OID_ON_SMTP_UTF8_MAILBOX

    names = []
    for source in (cert.san, cert.ian):
        if source is None:
            continue
        names.extend(
            gn
            for gn in source.names
            if gn.kind is GeneralNameKind.OTHER_NAME
            and gn.other_name_oid == OID_ON_SMTP_UTF8_MAILBOX
        )
    return names


def _check_smtp_utf8_is_utf8(cert: Certificate) -> tuple[bool, str]:
    for gn in _smtp_utf8_names(cert):
        problem = mailbox_encoding_problem(gn.raw)
        if problem is not None:
            return False, problem
    return True, ""


register_lint(
    name="e_smtp_utf8_mailbox_not_utf8string",
    description="SmtpUTF8Mailbox MUST be a UTF8String",
    citation="RFC 9598 3",
    source=Source.RFC9598,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC8399_DATE,
    new=True,
    applies=lambda cert: bool(_smtp_utf8_names(cert)),
    check=_check_smtp_utf8_is_utf8,
    scan=ScanSpec("smtp", ("SMTP_NOT_UTF8",), APPLIES_NONEMPTY),
)


def _check_smtp_utf8_not_ascii_only(cert: Certificate) -> tuple[bool, str]:
    for gn in _smtp_utf8_names(cert):
        local = gn.value.rsplit("@", 1)[0] if "@" in gn.value else gn.value
        if local and all(ord(ch) < 0x80 for ch in local):
            return False, (
                "SmtpUTF8Mailbox used for all-ASCII local part; MUST use rfc822Name"
            )
    return True, ""


register_lint(
    name="e_smtp_utf8_mailbox_ascii_only",
    description="SmtpUTF8Mailbox MUST NOT be used when the local part is ASCII",
    citation="RFC 9598 3",
    source=Source.RFC9598,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC9598_DATE,
    new=True,
    applies=lambda cert: bool(_smtp_utf8_names(cert)),
    check=_check_smtp_utf8_not_ascii_only,
    scan=ScanSpec("smtp", ("SMTP_ASCII_LOCAL",), APPLIES_NONEMPTY),
)


def _rfc822_all(cert: Certificate):
    return san_names(cert, GeneralNameKind.RFC822_NAME) + ian_names(
        cert, GeneralNameKind.RFC822_NAME
    )


def _check_rfc822_ascii_local(cert: Certificate) -> tuple[bool, str]:
    for gn in _rfc822_all(cert):
        local = gn.value.rsplit("@", 1)[0] if "@" in gn.value else gn.value
        if any(ord(ch) > 0x7F for ch in local):
            return False, (
                "rfc822Name local part contains non-ASCII; MUST use SmtpUTF8Mailbox"
            )
    return True, ""


register_lint(
    name="e_rfc822_name_contains_non_ascii_local_part",
    description="rfc822Name MUST be US-ASCII; non-ASCII needs SmtpUTF8Mailbox",
    citation="RFC 9598 5 (updating RFC 5280 4.2.1.6)",
    source=Source.RFC9598,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC9598_DATE,
    new=True,
    applies=lambda cert: bool(_rfc822_all(cert)),
    check=_check_rfc822_ascii_local,
    scan=ScanSpec("email_all", ("NON_ASCII",)),
)


# ---------------------------------------------------------------------------
# Raw decode failures: declared type cannot decode its content octets
# ---------------------------------------------------------------------------


def _check_dn_decodable(cert: Certificate) -> tuple[bool, str]:
    for name_obj in (cert.subject, cert.issuer):
        for attr in name_obj.attributes():
            if not attr.decode_ok:
                return False, (
                    f"{attr.short_name} content octets do not decode as {attr.spec.name}"
                )
    return True, ""


register_lint(
    name="e_dn_attribute_undecodable_bytes",
    description="DN attribute bytes must decode under the declared string type",
    citation="ITU-T X.690 8.23 (string encodings)",
    source=Source.X680,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_ENCODING,
    effective_date=RFC5280_DATE,
    new=True,
    applies=lambda cert: True,
    check=_check_dn_decodable,
    scan=ScanSpec("dn", ("DECODE_BAD",)),
)


