"""Reference oracle for the typed X.509 decoders.

``repro.x509`` decodes certificates and extension views straight off
the DER node table (``repro.asn1.der.parse_node``), and reads the
subject public key only on first use.  This module keeps the
``Element``-tree decoders those replaced: every type is decoded from
``repro.asn1.der.parse``'s element tree, and the key eagerly.  The
differential tests hold production to the same models and the same
errors.  The element tree itself is held to the recursive parser of
``tests/asn1/reference_der.py`` by ``tests/asn1/test_der_fast.py``.

It is test-only and never imported by ``src/``.
"""

from __future__ import annotations

import ipaddress

from repro.asn1.der import (
    Element,
    decode_bit_string,
    decode_boolean,
    decode_integer,
    decode_oid,
    decode_time,
    parse as parse_der,
)
from repro.asn1.errors import ASN1Error, DERDecodeError
from repro.asn1.oid import (
    ObjectIdentifier,
    OID_EXT_AIA,
    OID_EXT_CERTIFICATE_POLICIES,
    OID_EXT_CRL_DISTRIBUTION_POINTS,
    OID_EXT_IAN,
    OID_EXT_SAN,
    OID_EXT_SIA,
    OID_ON_SMTP_UTF8_MAILBOX,
    OID_QT_CPS,
    OID_QT_UNOTICE,
)
from repro.asn1.strings import IA5_STRING, UTF8_STRING, spec_for_tag
from repro.asn1.tags import TagClass, UniversalTag
from repro.x509.certificate import Certificate
from repro.x509.extensions import (
    AccessDescription,
    CRLDistributionPoints,
    DistributionPoint,
    Extension,
    GeneralNames,
    InfoAccess,
    ParsedPolicies,
)
from repro.x509.general_name import GeneralName, GeneralNameKind
from repro.x509.keys import SimPublicKey
from repro.x509.name import AttributeTypeAndValue, Name, RelativeDistinguishedName


def reference_attribute(element: Element, strict: bool = False) -> AttributeTypeAndValue:
    if len(element.children) != 2:
        raise DERDecodeError(
            f"AttributeTypeAndValue needs 2 children, got {len(element.children)}",
            element.offset,
        )
    attr_oid = decode_oid(element.child(0))
    value_el = element.child(1)
    raw = value_el.content
    decode_ok = True
    if value_el.tag.cls is TagClass.UNIVERSAL and value_el.tag.is_string:
        spec = spec_for_tag(value_el.tag.number)
        try:
            value = spec.decode(raw, strict=strict)
        except Exception:
            decode_ok = False
            value = raw.decode("latin-1", errors="replace")
    else:
        spec = UTF8_STRING
        decode_ok = False
        value = raw.decode("latin-1", errors="replace")
    return AttributeTypeAndValue(
        oid=attr_oid, value=value, spec=spec, raw=raw, decode_ok=decode_ok
    )


def reference_name(element: Element, strict: bool = False) -> Name:
    return Name(
        rdns=[
            RelativeDistinguishedName(
                attributes=[reference_attribute(child, strict) for child in rdn.children]
            )
            for rdn in element.children
        ]
    )


def reference_general_name(element: Element, strict: bool = False) -> GeneralName:
    if element.tag.cls is not TagClass.CONTEXT:
        raise DERDecodeError(f"GeneralName expects a context tag, got {element.tag}")
    try:
        kind = GeneralNameKind(element.tag.number)
    except ValueError:
        raise DERDecodeError(
            f"unknown GeneralName tag [{element.tag.number}]", element.offset
        ) from None
    if kind is GeneralNameKind.DIRECTORY_NAME:
        if not element.children:
            raise DERDecodeError("empty directoryName", element.offset)
        return GeneralName(kind=kind, name=reference_name(element.child(0), strict))
    if kind is GeneralNameKind.IP_ADDRESS:
        raw = element.content
        try:
            value = str(ipaddress.ip_address(raw))
        except ValueError:
            value = raw.hex()
        return GeneralName(kind=kind, value=value, raw=raw)
    if kind is GeneralNameKind.OTHER_NAME:
        name_oid = None
        value = ""
        raw = b""
        if element.children:
            name_oid = decode_oid(element.child(0))
            if len(element.children) > 1:
                payload = element.child(1)
                raw = payload.encode()
                if name_oid == OID_ON_SMTP_UTF8_MAILBOX and payload.children:
                    inner = payload.child(0)
                    value = inner.content.decode("utf-8", errors="replace")
        return GeneralName(kind=kind, value=value, raw=raw, other_name_oid=name_oid)
    if kind is GeneralNameKind.REGISTERED_ID:
        return GeneralName(
            kind=kind, value=ObjectIdentifier.decode_value(element.content).dotted
        )
    try:
        value = IA5_STRING.decode(element.content, strict=True)
        decode_ok = True
    except Exception:
        decode_ok = False
        value = element.content.decode("latin-1", errors="replace")
    return GeneralName(
        kind=kind, value=value, spec=IA5_STRING, raw=element.content, decode_ok=decode_ok
    )


def reference_general_names(der: bytes, strict: bool = False) -> GeneralNames:
    root = parse_der(der, strict=strict)
    return GeneralNames(
        names=[reference_general_name(child, strict) for child in root.children]
    )


def reference_info_access(der: bytes, strict: bool = False) -> InfoAccess:
    root = parse_der(der, strict=strict)
    return InfoAccess(
        descriptions=[
            AccessDescription(
                method=decode_oid(child.child(0)),
                location=reference_general_name(child.child(1), strict),
            )
            for child in root.children
        ]
    )


def reference_distribution_point(element: Element, strict: bool = False) -> DistributionPoint:
    names: list[GeneralName] = []
    for child in element.children:
        if child.tag.cls is TagClass.CONTEXT and child.tag.number == 0:
            for inner in child.children:
                if inner.tag.cls is TagClass.CONTEXT and inner.tag.number == 0:
                    names.extend(
                        reference_general_name(gn, strict) for gn in inner.children
                    )
    return DistributionPoint(full_names=names)


def reference_crl_distribution_points(
    der: bytes, strict: bool = False
) -> CRLDistributionPoints:
    root = parse_der(der, strict=strict)
    return CRLDistributionPoints(
        points=[reference_distribution_point(child, strict) for child in root.children]
    )


def reference_policies(der: bytes, strict: bool = False) -> ParsedPolicies:
    parsed = ParsedPolicies()
    root = parse_der(der, strict=strict)
    for policy_info in root.children:
        if not policy_info.children:
            continue
        parsed.policy_oids.append(decode_oid(policy_info.child(0)))
        if len(policy_info.children) < 2:
            continue
        for qualifier in policy_info.child(1).children:
            if len(qualifier.children) < 2:
                continue
            q_oid = decode_oid(qualifier.child(0))
            q_value = qualifier.child(1)
            if q_oid == OID_QT_CPS:
                parsed.cps_uris.append(q_value.content.decode("latin-1", errors="replace"))
            elif q_oid == OID_QT_UNOTICE:
                for part in q_value.children:
                    if part.tag.cls is TagClass.UNIVERSAL and part.tag.is_string:
                        try:
                            spec = spec_for_tag(part.tag.number)
                            text = spec.decode(part.content, strict=False)
                            ok = True
                            try:
                                spec.decode(part.content, strict=True)
                            except Exception:
                                ok = False
                        except Exception:
                            text, ok = part.content.decode("latin-1", "replace"), False
                        parsed.explicit_texts.append((part.tag.number, text, ok))
    return parsed


def reference_basic_constraints(der: bytes) -> tuple[bool, int | None]:
    root = parse_der(der, strict=False)
    ca = False
    path_len = None
    for child in root.children:
        if child.tag.number == UniversalTag.BOOLEAN:
            ca = decode_boolean(child, strict=False)
        elif child.tag.number == UniversalTag.INTEGER:
            path_len = decode_integer(child, strict=False)
    return ca, path_len


def reference_extension(element: Element) -> Extension:
    if not element.children:
        raise DERDecodeError("empty Extension", element.offset)
    ext_oid = decode_oid(element.child(0))
    critical = False
    value_index = 1
    if len(element.children) > 2 or (
        len(element.children) == 2 and element.child(1).tag.number == UniversalTag.BOOLEAN
    ):
        critical = decode_boolean(element.child(1), strict=False)
        value_index = 2
    value_der = (
        element.child(value_index).content if value_index < len(element.children) else b""
    )
    return Extension(oid=ext_oid, critical=critical, value_der=value_der)


def reference_public_key(element: Element) -> SimPublicKey:
    key_bits, _unused = decode_bit_string(element.child(1))
    rsa_key = parse_der(key_bits, strict=False)
    return SimPublicKey(
        n=decode_integer(rsa_key.child(0), strict=False),
        e=decode_integer(rsa_key.child(1), strict=False),
    )


def reference_from_der(data: bytes, strict: bool = False) -> Certificate:
    """Decode a certificate from its element tree, the key eagerly."""
    raw = bytes(data)
    root = parse_der(raw, strict=strict)
    if len(root.children) != 3:
        raise DERDecodeError("Certificate needs tbs/alg/signature", root.offset)
    tbs = root.child(0)
    signature_bits, _unused = decode_bit_string(root.child(2))

    index = 0
    version = 0
    first = tbs.child(0)
    if first.tag.cls is TagClass.CONTEXT and first.tag.number == 0:
        version = decode_integer(first.child(0), strict=False)
        index = 1
    serial = decode_integer(tbs.child(index), strict=False)
    issuer = reference_name(tbs.child(index + 2), strict=False)
    validity = tbs.child(index + 3)
    not_before = decode_time(validity.child(0))
    not_after = decode_time(validity.child(1))
    subject = reference_name(tbs.child(index + 4), strict=False)
    public_key = None
    try:
        public_key = reference_public_key(tbs.child(index + 5))
    except Exception:
        pass
    extensions: list[Extension] = []
    for child in tbs.children[index + 6 :]:
        if child.tag.cls is TagClass.CONTEXT and child.tag.number == 3:
            for ext_el in child.child(0).children:
                extensions.append(reference_extension(ext_el))
    return Certificate(
        serial=serial,
        issuer=issuer,
        subject=subject,
        not_before=not_before,
        not_after=not_after,
        extensions=extensions,
        public_key=public_key,
        version=version,
        tbs_der=raw[tbs.offset : tbs.end],
        signature=signature_bits,
        raw=raw,
    )


#: Each extension view: slot -> (extension OID, parser, errors it records).
REFERENCE_VIEWS = {
    "san": (OID_EXT_SAN, reference_general_names, (ASN1Error, ValueError)),
    "ian": (OID_EXT_IAN, reference_general_names, (ASN1Error, ValueError)),
    "aia": (OID_EXT_AIA, reference_info_access, Exception),
    "sia": (OID_EXT_SIA, reference_info_access, Exception),
    "crldp": (OID_EXT_CRL_DISTRIBUTION_POINTS, reference_crl_distribution_points, Exception),
    "cp": (OID_EXT_CERTIFICATE_POLICIES, reference_policies, Exception),
}


def reference_view(cert: Certificate, slot: str):
    """``(view, error)`` of one extension view, as the eager decoders gave it."""
    oid, parser, errors = REFERENCE_VIEWS[slot]
    ext = cert.get_extension(oid)
    if ext is None:
        return None, None
    try:
        return parser(ext.value_der, strict=False), None
    except errors as exc:
        return None, f"{type(exc).__name__}: {exc}"
