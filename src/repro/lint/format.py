"""Illegal Format lints (T3) — 17 lints, all from existing linters.

Basic formatting errors: length overflows, wrong character case, bad
syntactic shape of DNS names / emails / URIs, and empty values.
"""

from __future__ import annotations

from ..asn1.oid import (
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
    OID_SERIAL_NUMBER,
    OID_STATE_OR_PROVINCE,
)
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralNameKind
from .compiled import APPLIES_NONEMPTY, ScanSpec
from .framework import (
    CABF_BR_DATE,
    NoncomplianceType,
    RFC5280_DATE,
    Severity,
    Source,
)
from .helpers import all_dns_names, ian_names, register_lint, san_names, subject_attrs

# ---------------------------------------------------------------------------
# Attribute upper bounds (RFC 5280 Appendix A "upper bounds")
# ---------------------------------------------------------------------------


def _make_length_lint(name, oid, label, maximum):
    def applies(cert: Certificate) -> bool:
        return bool(subject_attrs(cert, oid))

    def check(cert: Certificate) -> tuple[bool, str]:
        for attr in subject_attrs(cert, oid):
            if len(attr.value) > maximum:
                return False, f"{label} exceeds ub ({len(attr.value)} > {maximum})"
        return True, ""

    register_lint(
        name=name,
        description=f"{label} must not exceed {maximum} characters",
        citation="RFC 5280 Appendix A (upper bounds)",
        source=Source.RFC5280,
        severity=Severity.ERROR,
        nc_type=NoncomplianceType.ILLEGAL_FORMAT,
        effective_date=RFC5280_DATE,
        new=False,
        applies=applies,
        check=check,
        # Only a value longer than ``maximum`` fails; a bound without a
        # LEN_GT_* atom raises here rather than losing its kernel.
        scan=ScanSpec(("s", oid.dotted), (f"LEN_GT_{maximum}",)),
    )


_make_length_lint("e_subject_common_name_max_length", OID_COMMON_NAME, "Subject CN", 64)
_make_length_lint(
    "e_subject_organization_name_max_length", OID_ORGANIZATION_NAME, "Subject O", 64
)
_make_length_lint("e_subject_locality_name_max_length", OID_LOCALITY_NAME, "Subject L", 128)
_make_length_lint("e_subject_state_name_max_length", OID_STATE_OR_PROVINCE, "Subject ST", 128)
_make_length_lint(
    "e_subject_serial_number_max_length", OID_SERIAL_NUMBER, "Subject serialNumber", 64
)


# ---------------------------------------------------------------------------
# CountryName shape
# ---------------------------------------------------------------------------


def _country_applies(cert: Certificate) -> bool:
    return bool(subject_attrs(cert, OID_COUNTRY_NAME))


def _check_country_two_letter(cert: Certificate) -> tuple[bool, str]:
    for attr in subject_attrs(cert, OID_COUNTRY_NAME):
        if len(attr.value) != 2:
            return False, f"countryName {attr.value!r} is not exactly two letters"
    return True, ""


register_lint(
    name="e_subject_country_not_two_letter",
    description="Subject countryName must be a 2-character ISO 3166 code",
    citation="RFC 5280 Appendix A (ub-country-name-alpha-length)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=RFC5280_DATE,
    new=False,
    applies=_country_applies,
    check=_check_country_two_letter,
    scan=ScanSpec(("s", OID_COUNTRY_NAME.dotted), ("LEN_NE_2",)),
)


def _check_country_uppercase(cert: Certificate) -> tuple[bool, str]:
    for attr in subject_attrs(cert, OID_COUNTRY_NAME):
        if len(attr.value) == 2 and not attr.value.isupper():
            return False, f"countryName {attr.value!r} is not uppercase"
    return True, ""


register_lint(
    name="e_subject_country_not_uppercase",
    description="Subject countryName must be uppercase",
    citation="ISO 3166-1 alpha-2 via CA/B BR 7.1.4.2.2",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=_country_applies,
    check=_check_country_uppercase,
    scan=ScanSpec(("s", OID_COUNTRY_NAME.dotted), ("NOT_UPPER",)),
)


# ---------------------------------------------------------------------------
# DNS name shape
# ---------------------------------------------------------------------------


def _has_dns(cert: Certificate) -> bool:
    return bool(all_dns_names(cert))


def _make_dns_lint(name, description, citation, source, effective_date, checker, atom):
    register_lint(
        name=name,
        description=description,
        citation=citation,
        source=source,
        severity=Severity.ERROR,
        nc_type=NoncomplianceType.ILLEGAL_FORMAT,
        effective_date=effective_date,
        new=False,
        applies=_has_dns,
        check=checker,
        scan=ScanSpec("dns", (atom,)),
    )


def _check_label_length(cert: Certificate) -> tuple[bool, str]:
    for dns_name in all_dns_names(cert):
        for label in dns_name.split("."):
            if len(label) > 63:
                return False, f"label {label[:16]!r}… exceeds 63 octets in {dns_name!r}"
    return True, ""


_make_dns_lint(
    "e_dns_label_too_long",
    "DNS labels must not exceed 63 octets",
    "RFC 1034 3.1",
    Source.RFC1034,
    RFC5280_DATE,
    _check_label_length,
    "DNS_LABEL_GT_63",
)


def _check_name_length(cert: Certificate) -> tuple[bool, str]:
    for dns_name in all_dns_names(cert):
        if len(dns_name.rstrip(".")) > 253:
            return False, f"DNS name exceeds 253 octets ({len(dns_name)})"
    return True, ""


_make_dns_lint(
    "e_dns_name_too_long",
    "DNS names must not exceed 253 octets",
    "RFC 1034 3.1",
    Source.RFC1034,
    RFC5280_DATE,
    _check_name_length,
    "DNS_NAME_GT_253",
)


def _check_empty_label(cert: Certificate) -> tuple[bool, str]:
    for dns_name in all_dns_names(cert):
        candidate = dns_name[:-1] if dns_name.endswith(".") else dns_name
        if not candidate or any(label == "" for label in candidate.split(".")):
            return False, f"DNS name {dns_name!r} has an empty label"
    return True, ""


_make_dns_lint(
    "e_dns_label_empty",
    "DNS names must not contain empty labels",
    "RFC 1034 3.5",
    Source.RFC1034,
    RFC5280_DATE,
    _check_empty_label,
    "DNS_EMPTY_LABEL",
)


def _check_hyphen_edges(cert: Certificate) -> tuple[bool, str]:
    for dns_name in all_dns_names(cert):
        for label in dns_name.rstrip(".").split("."):
            if label.startswith("-") or label.endswith("-"):
                return False, f"label {label!r} begins/ends with hyphen in {dns_name!r}"
    return True, ""


_make_dns_lint(
    "e_dns_label_hyphen_at_edge",
    "DNS labels must not begin or end with a hyphen",
    "RFC 5890 2.3.1 (LDH rule)",
    Source.IDNA2008,
    RFC5280_DATE,
    _check_hyphen_edges,
    "DNS_HYPHEN_EDGE",
)


def _check_port_or_path(cert: Certificate) -> tuple[bool, str]:
    for gn in san_names(cert, GeneralNameKind.DNS_NAME):
        if "/" in gn.value or ":" in gn.value:
            return False, f"SAN DNSName {gn.value!r} includes a port or path"
    return True, ""


register_lint(
    name="e_san_dns_name_includes_port_or_path",
    description="SAN DNSNames must be bare names, not URLs",
    citation="CA/B BR 7.1.4.2.1",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=lambda cert: bool(san_names(cert, GeneralNameKind.DNS_NAME)),
    check=_check_port_or_path,
    scan=ScanSpec("san_dns", ("COLON_OR_SLASH",)),
)


# ---------------------------------------------------------------------------
# Email / URI shape
# ---------------------------------------------------------------------------


def _emails(cert: Certificate):
    return san_names(cert, GeneralNameKind.RFC822_NAME) + ian_names(
        cert, GeneralNameKind.RFC822_NAME
    )


def _check_email_shape(cert: Certificate) -> tuple[bool, str]:
    for gn in _emails(cert):
        if gn.value.count("@") != 1 or gn.value.startswith("@") or gn.value.endswith("@"):
            return False, f"rfc822Name {gn.value!r} is not a valid mailbox"
    return True, ""


register_lint(
    name="e_rfc822_invalid_syntax",
    description="rfc822Name must be a mailbox of the form local@domain",
    citation="RFC 5280 4.2.1.6",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=RFC5280_DATE,
    new=False,
    applies=lambda cert: bool(_emails(cert)),
    check=_check_email_shape,
    scan=ScanSpec("email_all", ("SHAPE_BAD",)),
)


def _uris(cert: Certificate):
    uris = san_names(cert, GeneralNameKind.URI) + ian_names(cert, GeneralNameKind.URI)
    dps = cert.crl_distribution_points
    if dps is not None:
        uris.extend(
            gn
            for point in dps.points
            for gn in point.full_names
            if gn.kind is GeneralNameKind.URI
        )
    return uris


def _check_uri_scheme(cert: Certificate) -> tuple[bool, str]:
    for gn in _uris(cert):
        head = gn.value.split(":", 1)[0] if ":" in gn.value else ""
        if not head or not head[:1].isalpha() or not all(
            ch.isalnum() or ch in "+-." for ch in head
        ):
            return False, f"URI {gn.value!r} lacks a valid scheme"
    return True, ""


register_lint(
    name="e_uri_invalid_scheme",
    description="uniformResourceIdentifier must carry a URI scheme",
    citation="RFC 5280 4.2.1.6 + RFC 3986 3.1",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=RFC5280_DATE,
    new=False,
    applies=lambda cert: bool(_uris(cert)),
    check=_check_uri_scheme,
    scan=ScanSpec("uris_scheme", ("SHAPE_BAD",), mode=APPLIES_NONEMPTY),
)


# ---------------------------------------------------------------------------
# Emptiness and explicitText length
# ---------------------------------------------------------------------------


def _check_empty_attr(cert: Certificate) -> tuple[bool, str]:
    for attr in cert.subject.attributes():
        if attr.value == "" and not attr.raw:
            return False, f"{attr.short_name} has an empty value"
    return True, ""


register_lint(
    name="e_subject_empty_attribute_value",
    description="Subject attribute values must not be empty",
    citation="RFC 5280 4.1.2.6 + CA/B BR 7.1.4.2",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=lambda cert: not cert.subject.is_empty,
    check=_check_empty_attr,
    scan=ScanSpec("subject", ("EMPTY_NORAW",)),
)


def _check_empty_san(cert: Certificate) -> tuple[bool, str]:
    san = cert.san
    for gn in san.names:
        if gn.kind in (
            GeneralNameKind.DNS_NAME,
            GeneralNameKind.RFC822_NAME,
            GeneralNameKind.URI,
        ) and gn.value == "":
            return False, f"empty {gn.type_prefix()} entry in SAN"
    if not san.names:
        return False, "SAN extension is present but empty"
    return True, ""


register_lint(
    name="e_ext_san_empty_name",
    description="SubjectAltName entries must not be empty",
    citation="RFC 5280 4.2.1.6 (SAN MUST contain at least one entry)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=RFC5280_DATE,
    new=False,
    applies=lambda cert: cert.san is not None,
    check=_check_empty_san,
    scan=ScanSpec("san_entries", ("SAN_EMPTY_ENTRY", "SAN_NO_NAMES")),
)


def _cp_has_text(cert: Certificate) -> bool:
    policies = cert.policies
    return policies is not None and bool(policies.explicit_texts)


def _check_text_length(cert: Certificate) -> tuple[bool, str]:
    for _tag, text, _ok in cert.policies.explicit_texts:
        if len(text) > 200:
            return False, f"explicitText has {len(text)} characters (max 200)"
    return True, ""


register_lint(
    name="e_rfc_ext_cp_explicit_text_too_long",
    description="CertificatePolicies explicitText must not exceed 200 characters",
    citation="RFC 5280 4.2.1.4 (DisplayText SIZE 1..200)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.ILLEGAL_FORMAT,
    effective_date=RFC5280_DATE,
    new=False,
    applies=_cp_has_text,
    check=_check_text_length,
    scan=ScanSpec("cp_text", ("LEN_GT_200",), mode=APPLIES_NONEMPTY),
)


