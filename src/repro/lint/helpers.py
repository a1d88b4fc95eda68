"""Shared predicates and factory helpers used by the lint modules."""

from __future__ import annotations

from typing import Callable, Iterable

from ..asn1.strings import IA5_STRING, PRINTABLE_STRING, StringSpec, UTF8_STRING
from ..asn1.oid import ObjectIdentifier
from ..uni import punycode
from ..uni.dns import is_xn_label
from ..uni.errors import PunycodeError
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralName, GeneralNameKind
from ..x509.name import AttributeTypeAndValue
from .compiled import ScanSpec, dns_shaped, spec_trigger
from .framework import (
    FunctionLint,
    LintMetadata,
    NoncomplianceType,
    REGISTRY,
    Severity,
    Source,
)

# ---------------------------------------------------------------------------
# Character predicates
# ---------------------------------------------------------------------------

CONTROL_CHARS = frozenset(chr(cp) for cp in (*range(0x00, 0x20), 0x7F))

#: Visible US-ASCII plus space — the paper's "printable" core.
PRINTABLE_ASCII = frozenset(map(chr, range(0x20, 0x7F)))

#: Visible US-ASCII (no space): the GeneralName-permitted range.
VISIBLE_ASCII = frozenset(map(chr, range(0x21, 0x7F)))


def has_control_characters(text: str) -> bool:
    """Whether ``text`` contains C0 controls or DEL."""
    return not CONTROL_CHARS.isdisjoint(text)


def non_printable_ascii(text: str) -> list[str]:
    """Characters outside U+0020..U+007E (the paper's core definition)."""
    return sorted(set(text) - PRINTABLE_ASCII)


def describe_chars(chars: Iterable[str]) -> str:
    """Render characters as a short U+XXXX list for lint messages."""
    return ", ".join(f"U+{ord(ch):04X}" for ch in list(chars)[:8])


# ---------------------------------------------------------------------------
# Field extractors.  ``all_dns_names`` takes the same names as the ``dns``
# scope of the compiled field pass (SAN DNSNames and the CNs
# :func:`~repro.lint.compiled.dns_shaped` accepts).
# ---------------------------------------------------------------------------


def all_dns_names(cert: Certificate) -> list[str]:
    """Distinct DNSNames in SAN plus DNS-shaped CommonNames, in order."""
    san = cert.san
    names = san.dns_names() if san is not None else []
    names += [cn for cn in cert.subject_common_names if dns_shaped(cn)]
    # A CN repeated in the SAN (the CA/B-mandated layout) must not yield
    # the name twice — per-name lint messages would double-count it.
    return list(dict.fromkeys(names))


def xn_labels(cert: Certificate) -> list[str]:
    """All ``xn--`` (A-label) DNS labels across the cert's DNS names."""
    return [
        label
        for dns_name in all_dns_names(cert)
        for label in dns_name.split(".")
        if is_xn_label(label)
    ]


def subject_attrs(cert: Certificate, oid: ObjectIdentifier) -> list[AttributeTypeAndValue]:
    """Subject attributes of the given type."""
    return cert.subject.get_attrs(oid)


def issuer_attrs(cert: Certificate, oid: ObjectIdentifier) -> list[AttributeTypeAndValue]:
    """Issuer attributes of the given type."""
    return cert.issuer.get_attrs(oid)


def san_names(cert: Certificate, kind: GeneralNameKind) -> list[GeneralName]:
    """SAN GeneralNames of one kind (empty when no SAN)."""
    san = cert.san
    if san is None:
        return []
    return [gn for gn in san.names if gn.kind is kind]


def ian_names(cert: Certificate, kind: GeneralNameKind) -> list[GeneralName]:
    """IAN GeneralNames of one kind (empty when no IAN)."""
    ian = cert.ian
    if ian is None:
        return []
    return [gn for gn in ian.names if gn.kind is kind]


def decode_alabel(label: str) -> tuple[str, str | None, PunycodeError | None]:
    """Decode one A-label: ``(label, ulabel | None, error | None)``."""
    try:
        return (label, punycode.decode(label[4:]), None)
    except PunycodeError as exc:
        return (label, None, exc)


def alabel_decodings(cert: Certificate) -> list[tuple[str, str | None, PunycodeError | None]]:
    """Punycode decode outcome for every A-label, in order."""
    return [decode_alabel(label) for label in xn_labels(cert)]


# ---------------------------------------------------------------------------
# Lint factories — the building blocks for the attribute-family lints
# ---------------------------------------------------------------------------


def register_lint(
    *,
    name: str,
    description: str,
    citation: str,
    source: Source,
    severity: Severity,
    nc_type: NoncomplianceType,
    effective_date,
    new: bool,
    applies: Callable[[Certificate], bool],
    check: Callable[[Certificate], tuple[bool, str]],
    scan: ScanSpec | None = None,
) -> FunctionLint:
    """Assemble and register a FunctionLint.

    ``scan`` declares the lint's compiled kernel (see
    :mod:`repro.lint.compiled`): its scope is the lint's only
    applicability declaration in production, where ``applies`` is the
    spec the reference oracle runs.  ``None`` makes an unscoped row,
    live on every certificate with ``check`` always run, so only a lint
    whose ``applies`` is always True may leave it out.
    """
    metadata = LintMetadata(
        name=name,
        description=description,
        citation=citation,
        source=source,
        severity=severity,
        nc_type=nc_type,
        effective_date=effective_date,
        new=new,
    )
    return REGISTRY.register(FunctionLint(metadata, applies, check, scan))


def dn_encoding_lint(
    *,
    name: str,
    oid: ObjectIdentifier,
    attr_label: str,
    allowed: tuple[StringSpec, ...] = (PRINTABLE_STRING, UTF8_STRING),
    issuer: bool = False,
    effective_date,
    source: Source = Source.RFC5280,
    citation: str = "RFC 5280 4.1.2.4 (DirectoryString)",
    severity: Severity = Severity.ERROR,
    new: bool = True,
) -> FunctionLint:
    """Factory: <attr> must be encoded with one of the allowed types.

    This is the paper's ``*_not_printable_or_utf8`` lint family: RFC
    5280 requires CAs to encode DirectoryString attributes as
    PrintableString or UTF8String (legacy exceptions aside).
    """
    allowed_names = {spec.name for spec in allowed}
    extractor = issuer_attrs if issuer else subject_attrs
    atoms = spec_trigger(allowed_names)
    if atoms is None:
        raise ValueError(f"{name}: no spec trigger covers {sorted(allowed_names)}")
    scan = ScanSpec(("i" if issuer else "s", oid.dotted), atoms)

    def applies(cert: Certificate) -> bool:
        return bool(extractor(cert, oid))

    def check(cert: Certificate) -> tuple[bool, str]:
        for attr in extractor(cert, oid):
            if attr.spec.name not in allowed_names:
                return False, (
                    f"{attr_label} encoded as {attr.spec.name}; "
                    f"allowed: {', '.join(sorted(allowed_names))}"
                )
        return True, ""

    pretty = "/".join(sorted(allowed_names))
    return register_lint(
        name=name,
        description=f"{attr_label} must use {pretty}",
        citation=citation,
        source=source,
        severity=severity,
        nc_type=NoncomplianceType.INVALID_ENCODING,
        effective_date=effective_date,
        new=new,
        applies=applies,
        check=check,
        scan=scan,
    )


def dn_charset_lint(
    *,
    name: str,
    description: str,
    citation: str,
    source: Source,
    severity: Severity,
    effective_date,
    new: bool,
    issuer: bool = False,
    value_predicate: Callable[[str], str | None] | None = None,
    attr_predicate: Callable[[AttributeTypeAndValue], str | None] | None = None,
    atoms: tuple[str, ...],
) -> FunctionLint:
    """Factory: run a character predicate over every DN attribute value.

    Pass either ``value_predicate`` (receives ``attr.value``) or
    ``attr_predicate`` (receives the attribute, letting the predicate
    use ``attr.char_set``).  Both return a violation
    description or ``None``.  ``atoms`` names the atoms (char classes or
    string-derived pseudo-atoms) one of which a value's scan mask must
    carry for the predicate to fire; they become the kernel's trigger
    over the whole DN side.
    """
    if (value_predicate is None) == (attr_predicate is None):
        raise ValueError("provide exactly one of value_predicate/attr_predicate")
    predicate = attr_predicate or (lambda attr: value_predicate(attr.value))
    scan = ScanSpec("issuer" if issuer else "subject", atoms)

    def applies(cert: Certificate) -> bool:
        name_obj = cert.issuer if issuer else cert.subject
        return not name_obj.is_empty

    def check(cert: Certificate) -> tuple[bool, str]:
        name_obj = cert.issuer if issuer else cert.subject
        for attr in name_obj.attributes():
            problem = predicate(attr)
            if problem:
                return False, f"{attr.short_name}: {problem}"
        return True, ""

    return register_lint(
        name=name,
        description=description,
        citation=citation,
        source=source,
        severity=severity,
        nc_type=NoncomplianceType.INVALID_CHARACTER,
        effective_date=effective_date,
        new=new,
        applies=applies,
        check=check,
        scan=scan,
    )


def gn_ia5_encoding_lint(
    *,
    name: str,
    label: str,
    extractor: Callable[[Certificate], list[GeneralName]],
    effective_date,
    source: Source = Source.RFC5280,
    citation: str = "RFC 5280 4.2.1.6 (GeneralName IA5String)",
    new: bool = True,
    scan: ScanSpec,
) -> FunctionLint:
    """Factory: a GeneralName alternative must carry pure-IA5 octets.

    ``scan`` is the kernel over the scope ``extractor`` reads.
    """

    def applies(cert: Certificate) -> bool:
        return bool(extractor(cert))

    def check(cert: Certificate) -> tuple[bool, str]:
        for gn in extractor(cert):
            if not gn.decode_ok or not gn.value.isascii():
                return False, f"{label} contains non-IA5 octets: {gn.value!r}"
        return True, ""

    return register_lint(
        name=name,
        description=f"{label} must be IA5String (US-ASCII)",
        citation=citation,
        source=source,
        severity=Severity.ERROR,
        nc_type=NoncomplianceType.INVALID_ENCODING,
        effective_date=effective_date,
        new=new,
        applies=applies,
        check=check,
        scan=scan,
    )
