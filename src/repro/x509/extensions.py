"""X.509 v3 extensions used by the paper's measurements.

Each typed extension knows how to encode itself to its ``extnValue``
DER and how to parse back.  The generic :class:`Extension` wrapper keeps
raw bytes so unknown or deliberately malformed extensions round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1.der import (
    Element,
    Node,
    element_node,
    encode_boolean,
    encode_integer,
    encode_octet_string,
    encode_oid,
    encode_sequence,
    node_boolean,
    node_child,
    node_content,
    node_integer,
    node_oid,
    parse_node,
)
from ..asn1.errors import ASN1Error, DERDecodeError
from ..asn1.oid import (
    ObjectIdentifier,
    OID_EXT_AIA,
    OID_EXT_BASIC_CONSTRAINTS,
    OID_EXT_CERTIFICATE_POLICIES,
    OID_EXT_CRL_DISTRIBUTION_POINTS,
    OID_EXT_CT_POISON,
    OID_EXT_EXTENDED_KEY_USAGE,
    OID_EXT_IAN,
    OID_EXT_KEY_USAGE,
    OID_EXT_SAN,
    OID_EXT_SIA,
    OID_QT_CPS,
    OID_QT_UNOTICE,
)
from ..asn1.strings import StringSpec, UTF8_STRING, spec_for_tag
from ..asn1.tags import Tag, TagClass, UniversalTag
from .general_name import GeneralName


@dataclass
class Extension:
    """A raw extension: OID, criticality, and the DER of extnValue."""

    oid: ObjectIdentifier
    critical: bool
    value_der: bytes

    def encode(self) -> Element:
        children = [encode_oid(self.oid)]
        if self.critical:
            children.append(encode_boolean(True))
        children.append(encode_octet_string(self.value_der))
        return encode_sequence(*children)

    @classmethod
    def from_node(cls, data: bytes, node: Node) -> "Extension":
        children = node[4]
        if not children:
            raise DERDecodeError("empty Extension", node[1])
        ext_oid = node_oid(data, children[0])
        critical = False
        value_index = 1
        count = len(children)
        if count > 2 or (count == 2 and children[1][0].number == UniversalTag.BOOLEAN):
            critical = node_boolean(data, children[1], strict=False)
            value_index = 2
        value_der = node_content(data, children[value_index]) if value_index < count else b""
        return cls(oid=ext_oid, critical=critical, value_der=value_der)

    @classmethod
    def parse(cls, element: Element) -> "Extension":
        """Decode an :class:`Element` through :meth:`from_node`."""
        return cls.from_node(*element_node(element))


# ---------------------------------------------------------------------------
# GeneralNames-based extensions (SAN, IAN)
# ---------------------------------------------------------------------------


@dataclass
class GeneralNames:
    """A SEQUENCE OF GeneralName (SAN/IAN payload)."""

    names: list[GeneralName] = field(default_factory=list)

    def encode(self, strict: bool = False) -> bytes:
        return encode_sequence(*[gn.encode(strict=strict) for gn in self.names]).encode()

    @classmethod
    def parse(cls, der: bytes, strict: bool = False) -> "GeneralNames":
        general_name = GeneralName.from_node
        return cls(
            names=[general_name(der, child, strict) for child in parse_node(der, strict)[4]]
        )

    def dns_names(self) -> list[str]:
        from .general_name import GeneralNameKind

        return [gn.value for gn in self.names if gn.kind is GeneralNameKind.DNS_NAME]

    def to_extension(self, oid: ObjectIdentifier, critical: bool = False) -> Extension:
        return Extension(oid=oid, critical=critical, value_der=self.encode())


def subject_alt_name(*names: GeneralName, critical: bool = False) -> Extension:
    """Build a SubjectAltName extension."""
    return GeneralNames(list(names)).to_extension(OID_EXT_SAN, critical)


def issuer_alt_name(*names: GeneralName, critical: bool = False) -> Extension:
    """Build an IssuerAltName extension."""
    return GeneralNames(list(names)).to_extension(OID_EXT_IAN, critical)


# ---------------------------------------------------------------------------
# AccessDescription-based extensions (AIA, SIA)
# ---------------------------------------------------------------------------


@dataclass
class AccessDescription:
    """One accessMethod/accessLocation pair."""

    method: ObjectIdentifier
    location: GeneralName

    def encode(self, strict: bool = False) -> Element:
        return encode_sequence(encode_oid(self.method), self.location.encode(strict=strict))


@dataclass
class InfoAccess:
    """AIA/SIA payload: SEQUENCE OF AccessDescription."""

    descriptions: list[AccessDescription] = field(default_factory=list)

    def encode(self, strict: bool = False) -> bytes:
        return encode_sequence(
            *[desc.encode(strict=strict) for desc in self.descriptions]
        ).encode()

    @classmethod
    def parse(cls, der: bytes, strict: bool = False) -> "InfoAccess":
        """Decode the payload: the one InfoAccess/AccessDescription body."""
        general_name = GeneralName.from_node
        return cls(
            descriptions=[
                AccessDescription(
                    method=node_oid(der, node_child(child, 0)),
                    location=general_name(der, node_child(child, 1), strict),
                )
                for child in parse_node(der, strict)[4]
            ]
        )

    def locations_for(self, method: ObjectIdentifier) -> list[str]:
        return [d.location.value for d in self.descriptions if d.method == method]


def authority_info_access(*descriptions: AccessDescription) -> Extension:
    """Build an AuthorityInfoAccess extension."""
    return Extension(OID_EXT_AIA, False, InfoAccess(list(descriptions)).encode())


def subject_info_access(*descriptions: AccessDescription) -> Extension:
    """Build a SubjectInfoAccess extension."""
    return Extension(OID_EXT_SIA, False, InfoAccess(list(descriptions)).encode())


# ---------------------------------------------------------------------------
# CRLDistributionPoints
# ---------------------------------------------------------------------------


@dataclass
class DistributionPoint:
    """One DistributionPoint (fullName form only, as CAs use)."""

    full_names: list[GeneralName] = field(default_factory=list)

    def encode(self, strict: bool = False) -> Element:
        # DistributionPointName [0] -> fullName [0] IMPLICIT GeneralNames
        full = Element.constructed(
            Tag.context(0, constructed=True),
            [gn.encode(strict=strict) for gn in self.full_names],
        )
        dp_name = Element.constructed(Tag.context(0, constructed=True), [full])
        return encode_sequence(dp_name)


@dataclass
class CRLDistributionPoints:
    points: list[DistributionPoint] = field(default_factory=list)

    def encode(self, strict: bool = False) -> bytes:
        return encode_sequence(*[p.encode(strict=strict) for p in self.points]).encode()

    @classmethod
    def parse(cls, der: bytes, strict: bool = False) -> "CRLDistributionPoints":
        """Decode the payload: the one CRLDP/DistributionPoint body.

        Only the fullName form ``[0] { [0] GeneralNames }`` is read.
        """
        points = []
        for point in parse_node(der, strict)[4]:
            names: list[GeneralName] = []
            for child in point[4]:
                if child[0].cls is TagClass.CONTEXT and child[0].number == 0:
                    for inner in child[4]:
                        if inner[0].cls is TagClass.CONTEXT and inner[0].number == 0:
                            names.extend(
                                GeneralName.from_node(der, gn, strict) for gn in inner[4]
                            )
            points.append(DistributionPoint(full_names=names))
        return cls(points=points)

    def all_urls(self) -> list[str]:
        return [gn.value for point in self.points for gn in point.full_names]


def crl_distribution_points(*urls: str, strict: bool = False) -> Extension:
    """Build a CRLDistributionPoints extension with fullName URIs."""
    points = [DistributionPoint(full_names=[GeneralName.uri(url)]) for url in urls]
    return Extension(
        OID_EXT_CRL_DISTRIBUTION_POINTS,
        False,
        CRLDistributionPoints(points).encode(strict=strict),
    )


# ---------------------------------------------------------------------------
# CertificatePolicies (with UserNotice explicitText — the Table 11 top lint)
# ---------------------------------------------------------------------------


@dataclass
class UserNotice:
    """A UserNotice qualifier; explicitText is a DisplayText CHOICE."""

    explicit_text: str = ""
    #: DisplayText alternative actually used (UTF8String is the SHOULD).
    spec: StringSpec = UTF8_STRING

    def encode(self, strict: bool = False) -> Element:
        text = Element.primitive(
            Tag.universal(self.spec.tag_number), self.spec.encode(self.explicit_text, strict=strict)
        )
        return encode_sequence(text)


@dataclass
class PolicyQualifier:
    qualifier_oid: ObjectIdentifier
    cps_uri: str | None = None
    user_notice: UserNotice | None = None

    def encode(self, strict: bool = False) -> Element:
        if self.qualifier_oid == OID_QT_CPS:
            try:
                uri_octets = (self.cps_uri or "").encode("latin-1")
            except UnicodeEncodeError:
                # Noncompliant CAs put UTF-8 bytes into the IA5String.
                uri_octets = (self.cps_uri or "").encode("utf-8")
            value = Element.primitive(
                Tag.universal(UniversalTag.IA5_STRING), uri_octets
            )
        elif self.user_notice is not None:
            value = self.user_notice.encode(strict=strict)
        else:
            value = encode_sequence()
        return encode_sequence(encode_oid(self.qualifier_oid), value)


@dataclass
class PolicyInformation:
    policy_oid: ObjectIdentifier
    qualifiers: list[PolicyQualifier] = field(default_factory=list)

    def encode(self, strict: bool = False) -> Element:
        children: list[Element] = [encode_oid(self.policy_oid)]
        if self.qualifiers:
            children.append(
                encode_sequence(*[q.encode(strict=strict) for q in self.qualifiers])
            )
        return encode_sequence(*children)


@dataclass
class ParsedPolicies:
    """Decoded CertificatePolicies content for lint inspection."""

    policy_oids: list[ObjectIdentifier] = field(default_factory=list)
    #: (display-text tag number, decoded text, decode succeeded)
    explicit_texts: list[tuple[int, str, bool]] = field(default_factory=list)
    cps_uris: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, der: bytes, strict: bool = False) -> "ParsedPolicies":
        parsed = cls()
        for policy_info in parse_node(der, strict)[4]:
            info = policy_info[4]
            if not info:
                continue
            parsed.policy_oids.append(node_oid(der, info[0]))
            if len(info) < 2:
                continue
            for qualifier in info[1][4]:
                if len(qualifier[4]) < 2:
                    continue
                q_oid = node_oid(der, qualifier[4][0])
                q_value = qualifier[4][1]
                if q_oid == OID_QT_CPS:
                    parsed.cps_uris.append(
                        node_content(der, q_value).decode("latin-1", errors="replace")
                    )
                elif q_oid == OID_QT_UNOTICE:
                    for part in q_value[4]:
                        tag = part[0]
                        if tag.is_string:
                            content = node_content(der, part)
                            try:
                                spec = spec_for_tag(tag.number)
                                text = spec.decode(content, strict=False)
                                ok = True
                                try:
                                    spec.decode(content, strict=True)
                                except ASN1Error:
                                    ok = False
                            except ASN1Error:
                                text, ok = content.decode("latin-1", "replace"), False
                            parsed.explicit_texts.append((tag.number, text, ok))
        return parsed


def certificate_policies(*policies: PolicyInformation, strict: bool = False) -> Extension:
    """Build a CertificatePolicies extension."""
    return Extension(
        OID_EXT_CERTIFICATE_POLICIES,
        False,
        encode_sequence(*[p.encode(strict=strict) for p in policies]).encode(),
    )


# ---------------------------------------------------------------------------
# BasicConstraints / KeyUsage / EKU / CT poison
# ---------------------------------------------------------------------------


def basic_constraints(ca: bool, path_len: int | None = None, critical: bool = True) -> Extension:
    """Build a BasicConstraints extension."""
    children: list[Element] = []
    if ca:
        children.append(encode_boolean(True))
        if path_len is not None:
            children.append(encode_integer(path_len))
    return Extension(OID_EXT_BASIC_CONSTRAINTS, critical, encode_sequence(*children).encode())


def parse_basic_constraints(der: bytes) -> tuple[bool, int | None]:
    """Parse BasicConstraints content; returns (is_ca, path_len)."""
    ca = False
    path_len = None
    for child in parse_node(der, strict=False)[4]:
        number = child[0].number
        if number == UniversalTag.BOOLEAN:
            ca = node_boolean(der, child, strict=False)
        elif number == UniversalTag.INTEGER:
            path_len = node_integer(der, child, strict=False)
    return ca, path_len


def extended_key_usage(*oids: ObjectIdentifier) -> Extension:
    """Build an ExtendedKeyUsage extension."""
    return Extension(
        OID_EXT_EXTENDED_KEY_USAGE,
        False,
        encode_sequence(*[encode_oid(o) for o in oids]).encode(),
    )


def ct_poison() -> Extension:
    """The critical CT precertificate poison extension (RFC 6962)."""
    from ..asn1.der import encode_null

    return Extension(OID_EXT_CT_POISON, True, encode_null().encode())
