"""Bad Normalization lints (T2) — 4 lints, 3 of them new.

RFC 5280 (note on attribute normalization) expects UTF8String values in
NFC; RFC 8399/9549 require IDN U-labels to be NFC and A-labels to be the
canonical Punycode form so display/comparison round-trips are stable.
"""

from __future__ import annotations

from ..uni.idna import ulabel_to_alabel
from ..uni.normalization import is_nfc, nfc_violations
from ..uni.errors import IDNAError
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralNameKind
from .compiled import APPLIES_NONEMPTY, ScanSpec
from .framework import (
    IDNA2008_DATE,
    NoncomplianceType,
    RFC5280_DATE,
    RFC9598_DATE,
    Severity,
    Source,
)
from .helpers import alabel_decodings, register_lint


def _utf8_attrs(cert: Certificate):
    for name in (cert.subject, cert.issuer):
        for attr in name.attributes():
            if attr.spec.name == "UTF8String" and attr.decode_ok:
                yield attr


def _check_utf8_nfc(cert: Certificate) -> tuple[bool, str]:
    for attr in _utf8_attrs(cert):
        if not is_nfc(attr.value):
            return False, f"{attr.short_name} not NFC: {nfc_violations(attr.value)[0]}"
    return True, ""


register_lint(
    name="w_rfc_utf8_string_not_nfc",
    description="UTF8String attribute values SHOULD be NFC-normalized",
    citation="RFC 5280 (attribute normalization note) + UAX #15",
    source=Source.RFC5280,
    severity=Severity.WARN,
    nc_type=NoncomplianceType.BAD_NORMALIZATION,
    effective_date=RFC5280_DATE,
    new=False,
    applies=lambda cert: any(True for _ in _utf8_attrs(cert)),
    check=_check_utf8_nfc,
    scan=ScanSpec("utf8", ("NOT_NFC", "DECODE_BAD"), mode=APPLIES_NONEMPTY),
)


def _decodable_labels(cert: Certificate) -> list[tuple[str, str]]:
    return [
        (label, ulabel)
        for label, ulabel, error in alabel_decodings(cert)
        if error is None
    ]


def _check_ulabel_nfc(cert: Certificate) -> tuple[bool, str]:
    for label, decoded in _decodable_labels(cert):
        if not is_nfc(decoded):
            return False, f"U-label of {label!r} is not NFC"
    return True, ""


register_lint(
    name="e_rfc_dns_idn_u_label_not_nfc",
    description="Decoded IDN U-labels must be in NFC form",
    citation="RFC 5890 2.3.2.1 / RFC 9549",
    source=Source.IDNA2008,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.BAD_NORMALIZATION,
    effective_date=IDNA2008_DATE,
    new=True,
    applies=lambda cert: bool(_decodable_labels(cert)),
    check=_check_ulabel_nfc,
    scan=ScanSpec("xn", ("XN_NOT_NFC",), mode=APPLIES_NONEMPTY),
)


def _check_alabel_roundtrip(cert: Certificate) -> tuple[bool, str]:
    for label, decoded in _decodable_labels(cert):
        try:
            canonical = ulabel_to_alabel(decoded, validate=False)
        except IDNAError:
            continue
        if canonical != label.lower():
            return False, (
                f"A-label {label!r} is not the canonical encoding of its "
                f"U-label (expected {canonical!r})"
            )
    return True, ""


register_lint(
    name="e_rfc_dns_idn_alabel_roundtrip_mismatch",
    description="A-labels must be the canonical Punycode of their U-label",
    citation="RFC 5891 4.4 (registration validity)",
    source=Source.IDNA2008,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.BAD_NORMALIZATION,
    effective_date=IDNA2008_DATE,
    new=True,
    applies=lambda cert: bool(_decodable_labels(cert)),
    check=_check_alabel_roundtrip,
    scan=ScanSpec("xn", ("XN_ROUNDTRIP_BAD",), mode=APPLIES_NONEMPTY),
)


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


def _check_mailbox_nfc(cert: Certificate) -> tuple[bool, str]:
    for gn in _smtp_utf8_names(cert):
        if not is_nfc(gn.value):
            return False, f"SmtpUTF8Mailbox {gn.value!r} is not NFC"
    return True, ""


register_lint(
    name="e_smtp_utf8_mailbox_not_nfc",
    description="SmtpUTF8Mailbox values must be NFC-normalized",
    citation="RFC 9598 3 (via RFC 8398)",
    source=Source.RFC9598,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.BAD_NORMALIZATION,
    effective_date=RFC9598_DATE,
    new=True,
    applies=lambda cert: bool(_smtp_utf8_names(cert)),
    check=_check_mailbox_nfc,
    scan=ScanSpec("smtp", ("NOT_NFC",), APPLIES_NONEMPTY),
)
