"""Invalid Character lints (T1) — 22 lints, 10 of them new.

Inadequate CA checks on character ranges: control characters in DN
attributes, non-LDH characters in DNS labels, malformed or
IDNA2008-violating IDNs, bidi/invisible characters, and whitespace
anomalies.
"""

from __future__ import annotations

from ..asn1 import PRINTABLE_STRING
from ..uni import (
    BIDI_CONTROLS,
    INVISIBLE_CHARACTERS,
    is_ldh_label,
    mixed_script_confusable,
    unpermitted_violations,
)
from ..x509 import Certificate, GeneralNameKind
from .context import (
    FAMILY_CP,
    FAMILY_CRLDP,
    FAMILY_DNS,
    FAMILY_XN,
    ian_family,
    san_family,
    spec_family,
)
from .framework import (
    CABF_BR_DATE,
    COMMUNITY_DATE,
    IDNA2008_DATE,
    NoncomplianceType,
    RFC5280_DATE,
    Severity,
    Source,
)
from .helpers import (
    CONTROL_CHARS,
    VISIBLE_ASCII,
    alabel_decodings,
    all_dns_names,
    describe_chars,
    dn_charset_lint,
    ian_names,
    register_lint,
    san_names,
    xn_labels as _xn_labels,
)

# ---------------------------------------------------------------------------
# DN character lints
# ---------------------------------------------------------------------------


def _control_char_violation(attr) -> str | None:
    bad = sorted(CONTROL_CHARS & attr.char_set)
    if bad:
        return f"contains control character(s) {describe_chars(bad)}"
    return None


dn_charset_lint(
    name="e_rfc_subject_dn_not_printable_characters",
    description="Subject DN must not contain non-printable control characters",
    citation="RFC 5280 4.1.2.6 + ITU-T X.520",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    effective_date=RFC5280_DATE,
    new=False,
    attr_predicate=_control_char_violation,
)
dn_charset_lint(
    name="e_rfc_issuer_dn_not_printable_characters",
    description="Issuer DN must not contain non-printable control characters",
    citation="RFC 5280 4.1.2.4 + ITU-T X.520",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    effective_date=RFC5280_DATE,
    new=False,
    issuer=True,
    attr_predicate=_control_char_violation,
)


def _leading_ws(value: str) -> str | None:
    if value != value.lstrip():
        return "has leading whitespace"
    return None


def _trailing_ws(value: str) -> str | None:
    if value != value.rstrip():
        return "has trailing whitespace"
    return None


dn_charset_lint(
    name="w_community_subject_dn_leading_whitespace",
    description="Subject DN attribute values should not begin with whitespace",
    citation="Community practice (Zlint community lints)",
    source=Source.COMMUNITY,
    severity=Severity.WARN,
    effective_date=COMMUNITY_DATE,
    new=False,
    value_predicate=_leading_ws,
)
dn_charset_lint(
    name="w_community_subject_dn_trailing_whitespace",
    description="Subject DN attribute values should not end with whitespace",
    citation="Community practice (Zlint community lints)",
    source=Source.COMMUNITY,
    severity=Severity.WARN,
    effective_date=COMMUNITY_DATE,
    new=False,
    value_predicate=_trailing_ws,
)


def _del_char(value: str) -> str | None:
    if "\x7f" in value:
        return "contains DEL (U+007F)"
    return None


dn_charset_lint(
    name="w_community_dn_del_character",
    description="DN values should not contain the DEL character",
    citation="Community practice (paper finding F4)",
    source=Source.COMMUNITY,
    severity=Severity.WARN,
    effective_date=COMMUNITY_DATE,
    new=False,
    value_predicate=_del_char,
)


def _replacement_char(value: str) -> str | None:
    if "�" in value:
        return "contains U+FFFD REPLACEMENT CHARACTER (mangled transcoding)"
    return None


dn_charset_lint(
    name="w_community_dn_replacement_character",
    description="DN values should not contain U+FFFD",
    citation="Community practice (paper Table 3, illegal replacement)",
    source=Source.COMMUNITY,
    severity=Severity.WARN,
    effective_date=COMMUNITY_DATE,
    new=False,
    value_predicate=_replacement_char,
)


def _bidi_control(attr) -> str | None:
    bad = sorted(ch for ch in attr.char_set if ord(ch) in BIDI_CONTROLS)
    if bad:
        return f"contains bidi control(s) {describe_chars(bad)}"
    return None


dn_charset_lint(
    name="e_subject_dn_bidi_control_characters",
    description="Subject DN must not contain bidirectional control characters",
    citation="RFC 5280 + Unicode TR#9 (display-order spoofing)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    effective_date=RFC5280_DATE,
    new=True,
    attr_predicate=_bidi_control,
)


def _invisible(attr) -> str | None:
    bad = sorted(
        ch
        for ch in attr.char_set
        if ord(ch) in INVISIBLE_CHARACTERS and ord(ch) not in BIDI_CONTROLS
    )
    if bad:
        return f"contains invisible character(s) {describe_chars(bad)}"
    return None


dn_charset_lint(
    name="e_subject_dn_invisible_characters",
    description="Subject DN must not contain zero-width/invisible characters",
    citation="RFC 5280 + UTS #39",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    effective_date=RFC5280_DATE,
    new=True,
    attr_predicate=_invisible,
)


def _noncharacter(value: str) -> str | None:
    for ch in value:
        cp = ord(ch)
        if (cp & 0xFFFE) == 0xFFFE or 0xFDD0 <= cp <= 0xFDEF:
            return f"contains Unicode noncharacter U+{cp:04X}"
    return None


dn_charset_lint(
    name="e_subject_cn_unicode_noncharacter",
    description="DN values must not contain Unicode noncharacters",
    citation="Unicode 16.0 23.7 (noncharacters)",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    effective_date=RFC5280_DATE,
    new=True,
    value_predicate=_noncharacter,
)


def _mixed_script(value: str) -> str | None:
    if mixed_script_confusable(value):
        return "mixes Latin with confusable non-Latin letters"
    return None


dn_charset_lint(
    name="w_subject_dn_mixed_script_confusable",
    description="DN values should not mix confusable scripts",
    citation="UTS #39 5.1 (mixed-script confusables)",
    source=Source.COMMUNITY,
    severity=Severity.WARN,
    effective_date=COMMUNITY_DATE,
    new=True,
    value_predicate=_mixed_script,
)


# PrintableString charset check over *all* DN attributes.
def _badalpha_applies(cert: Certificate) -> bool:
    return any(
        attr.spec.name == "PrintableString"
        for name in (cert.subject, cert.issuer)
        for attr in name.attributes()
    )


def _badalpha_check(cert: Certificate) -> tuple[bool, str]:
    for name in (cert.subject, cert.issuer):
        for attr in name.attributes():
            if attr.spec.name == "PrintableString":
                bad = PRINTABLE_STRING.violations(attr.value)
                if bad:
                    return False, (
                        f"{attr.short_name} PrintableString holds {describe_chars(bad)}"
                    )
    return True, ""


register_lint(
    name="e_rfc_subject_printable_string_badalpha",
    description="PrintableString attribute values must stay within the charset",
    citation="ITU-T X.680 41.4 via RFC 5280 4.1.2.4",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=RFC5280_DATE,
    new=False,
    applies=_badalpha_applies,
    check=_badalpha_check,
    families={spec_family("PrintableString")},
)

# ---------------------------------------------------------------------------
# DNS name character lints
# ---------------------------------------------------------------------------


def _has_dns_names(cert: Certificate) -> bool:
    return bool(all_dns_names(cert))


def _check_label_charset(cert: Certificate) -> tuple[bool, str]:
    for dns_name in all_dns_names(cert):
        candidate = dns_name[:-1] if dns_name.endswith(".") else dns_name
        for index, label in enumerate(candidate.split(".")):
            if index == 0 and label == "*":
                continue
            ascii_bad = [
                ch for ch in label if ord(ch) <= 0x7E and not (ch.isalnum() or ch == "-")
            ]
            if ascii_bad:
                return False, (
                    f"label {label!r} of {dns_name!r} has bad character(s) "
                    f"{describe_chars(ascii_bad)}"
                )
    return True, ""


register_lint(
    name="e_cab_dns_bad_character_in_label",
    description="DNS labels must contain only LDH characters",
    citation="CA/B BR 7.1.4.2 via RFC 1034 3.5",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=_has_dns_names,
    check=_check_label_charset,
    families={FAMILY_DNS},
)


def _check_dns_whitespace(cert: Certificate) -> tuple[bool, str]:
    for dns_name in all_dns_names(cert):
        if any(ch.isspace() for ch in dns_name):
            return False, f"DNS name {dns_name!r} contains whitespace"
    return True, ""


register_lint(
    name="e_cab_dns_name_contains_whitespace",
    description="DNS names must not contain whitespace",
    citation="CA/B BR 7.1.4.2 via RFC 1034 3.5",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=_has_dns_names,
    check=_check_dns_whitespace,
    families={FAMILY_DNS},
)


def _check_idn_decodable(cert: Certificate) -> tuple[bool, str]:
    for label, _ulabel, exc in alabel_decodings(cert):
        if exc is not None:
            return False, f"A-label {label!r} cannot convert to Unicode: {exc}"
    return True, ""


register_lint(
    name="e_rfc_dns_idn_malformed_unicode",
    description="IDN A-labels must convert to Unicode",
    citation="RFC 5890 2.3.2.1 (A-label validity)",
    source=Source.IDNA2008,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=IDNA2008_DATE,
    new=False,
    applies=lambda cert: bool(_xn_labels(cert)),
    check=_check_idn_decodable,
    families={FAMILY_XN},
)


def _check_idn_permitted(cert: Certificate) -> tuple[bool, str]:
    for label, ulabel, exc in alabel_decodings(cert):
        if exc is not None:
            continue  # Covered by e_rfc_dns_idn_malformed_unicode.
        if not is_ldh_label(label):
            continue  # Reported by its LDH problems alone, as in alabel_violations.
        problems = unpermitted_violations(ulabel)
        if problems:
            return False, f"A-label {label!r}: {problems[0]}"
    return True, ""


register_lint(
    name="e_rfc_dns_idn_a2u_unpermitted_unichar",
    description="Decoded IDN U-labels must contain only IDNA2008-permitted characters",
    citation="RFC 5892 2 (derived properties)",
    source=Source.IDNA2008,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=IDNA2008_DATE,
    new=True,
    applies=lambda cert: bool(_xn_labels(cert)),
    check=_check_idn_permitted,
    families={FAMILY_XN},
)

# ---------------------------------------------------------------------------
# SAN / extension value character lints
# ---------------------------------------------------------------------------


def _make_san_unpermitted_lint(name, kind, label, new=True):
    def applies(cert: Certificate) -> bool:
        return bool(san_names(cert, kind))

    def check(cert: Certificate) -> tuple[bool, str]:
        for gn in san_names(cert, kind):
            bad = sorted(gn.char_set - VISIBLE_ASCII)
            if bad:
                return False, (
                    f"{label} {gn.value!r} contains unpermitted character(s) "
                    f"{describe_chars(bad)}"
                )
        return True, ""

    register_lint(
        name=name,
        description=f"{label} must contain only visible US-ASCII",
        citation="RFC 5280 4.2.1.6",
        source=Source.RFC5280,
        severity=Severity.ERROR,
        nc_type=NoncomplianceType.INVALID_CHARACTER,
        effective_date=RFC5280_DATE,
        new=new,
        applies=applies,
        check=check,
        families={san_family(kind)},
    )


_make_san_unpermitted_lint(
    "e_ext_san_dns_contain_unpermitted_unichar", GeneralNameKind.DNS_NAME, "SAN DNSName"
)
_make_san_unpermitted_lint(
    "e_ext_san_rfc822_contain_unpermitted_unichar",
    GeneralNameKind.RFC822_NAME,
    "SAN RFC822Name",
)
_make_san_unpermitted_lint(
    "e_ext_san_uri_contain_unpermitted_unichar", GeneralNameKind.URI, "SAN URI"
)


def _email_names(cert: Certificate):
    return san_names(cert, GeneralNameKind.RFC822_NAME) + ian_names(
        cert, GeneralNameKind.RFC822_NAME
    )


def _check_email_controls(cert: Certificate) -> tuple[bool, str]:
    for gn in _email_names(cert):
        if not CONTROL_CHARS.isdisjoint(gn.char_set):
            return False, f"email {gn.value!r} contains control characters"
    return True, ""


register_lint(
    name="e_rfc_email_contains_control_characters",
    description="RFC822Name values must not contain control characters",
    citation="RFC 5280 4.2.1.6 + RFC 5321",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=RFC5280_DATE,
    new=False,
    applies=lambda cert: bool(_email_names(cert)),
    check=_check_email_controls,
    families={
        san_family(GeneralNameKind.RFC822_NAME),
        ian_family(GeneralNameKind.RFC822_NAME),
    },
)


def _uri_names_all(cert: Certificate):
    return san_names(cert, GeneralNameKind.URI) + ian_names(cert, GeneralNameKind.URI)


def _check_uri_controls(cert: Certificate) -> tuple[bool, str]:
    for gn in _uri_names_all(cert):
        if not CONTROL_CHARS.isdisjoint(gn.char_set):
            return False, f"URI {gn.value!r} contains control characters"
    return True, ""


register_lint(
    name="e_rfc_uri_contains_control_characters",
    description="URI GeneralNames must not contain control characters",
    citation="RFC 5280 4.2.1.6 + RFC 3986 2",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=RFC5280_DATE,
    new=False,
    applies=lambda cert: bool(_uri_names_all(cert)),
    check=_check_uri_controls,
    families={san_family(GeneralNameKind.URI), ian_family(GeneralNameKind.URI)},
)


def _crldp_names(cert: Certificate):
    dps = cert.crl_distribution_points
    if dps is None:
        return []
    return [gn for point in dps.points for gn in point.full_names]


def _check_crldp_controls(cert: Certificate) -> tuple[bool, str]:
    for gn in _crldp_names(cert):
        if not CONTROL_CHARS.isdisjoint(gn.char_set):
            return False, (
                f"CRL distribution point {gn.value!r} contains control characters "
                "(revocation-subversion vector)"
            )
    return True, ""


register_lint(
    name="e_crldp_uri_contains_control_characters",
    description="CRLDistributionPoints URIs must not contain control characters",
    citation="RFC 5280 4.2.1.13 + RFC 3986 2",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=RFC5280_DATE,
    new=True,
    applies=lambda cert: bool(_crldp_names(cert)),
    check=_check_crldp_controls,
    families={FAMILY_CRLDP},
)


def _cp_has_text(cert: Certificate) -> bool:
    policies = cert.policies
    return policies is not None and bool(policies.explicit_texts)


def _check_cp_text_controls(cert: Certificate) -> tuple[bool, str]:
    for _tag, text, _ok in cert.policies.explicit_texts:
        bad = sorted(CONTROL_CHARS.intersection(text))
        if bad:
            return False, f"explicitText contains control character(s) {describe_chars(bad)}"
    return True, ""


register_lint(
    name="e_ext_cp_explicit_text_control_characters",
    description="CertificatePolicies explicitText must not contain control characters",
    citation="RFC 5280 4.2.1.4",
    source=Source.RFC5280,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_CHARACTER,
    effective_date=RFC5280_DATE,
    new=True,
    applies=_cp_has_text,
    check=_check_cp_text_controls,
    families={FAMILY_CP},
)
