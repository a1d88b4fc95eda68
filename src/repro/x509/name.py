"""Distinguished names: RDNs, attributes, and their text representations.

Implements the DN data model of RFC 5280 plus the three string
representations the paper's Table 5 tests against: RFC 4514, RFC 2253,
and RFC 1779.  Correct escaping here is the reference behaviour that the
TLS-library models in :mod:`repro.tlslibs` deviate from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1 import (
    DERDecodeError,
    Element,
    ObjectIdentifier,
    StringSpec,
    Tag,
    TagClass,
    UTF8_STRING,
    UniversalTag,
    decode_oid,
    encode_oid,
    encode_sequence,
    encode_set,
    encode_string,
    spec_for_tag,
)
from ..asn1.oid import OID_NAMES
from .cache import caching_enabled, interned_char_set

# ---------------------------------------------------------------------------
# Attribute model
# ---------------------------------------------------------------------------


@dataclass
class AttributeTypeAndValue:
    """One type-value pair inside an RDN.

    ``spec`` records the declared ASN.1 string type.  ``raw`` carries the
    undecoded content octets so noncompliant values (bytes that do not
    decode under the declared type) survive a parse/re-encode round trip.
    """

    oid: ObjectIdentifier
    value: str
    spec: StringSpec = UTF8_STRING
    raw: bytes | None = None
    #: Whether the stored value satisfied the declared type on decode.
    decode_ok: bool = True
    _char_set_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def short_name(self) -> str:
        return OID_NAMES.get(self.oid.dotted, self.oid.dotted)

    @property
    def char_set(self) -> frozenset:
        """The distinct characters of ``value``.

        Memoized per value object, and the frozenset itself is interned
        corpus-wide (:func:`repro.x509.cache.interned_char_set`): equal
        value strings on different attributes share one set object.
        """
        cached = self._char_set_cache
        use_cache = caching_enabled()
        if use_cache and cached is not None and cached[0] is self.value:
            return cached[1]
        chars = interned_char_set(self.value)
        if use_cache:
            self._char_set_cache = (self.value, chars)
        return chars

    def encode(self, strict: bool = False) -> Element:
        if self.raw is not None:
            inner = Element.primitive(Tag.universal(self.spec.tag_number), self.raw)
        else:
            inner = encode_string(self.value, self.spec, strict=strict)
        return encode_sequence(encode_oid(self.oid), inner)

    @classmethod
    def parse(cls, element: Element, strict: bool = False) -> "AttributeTypeAndValue":
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
            # Unusual value type (e.g. an INTEGER in a DN); keep bytes.
            spec = UTF8_STRING
            decode_ok = False
            value = raw.decode("latin-1", errors="replace")
        return cls(oid=attr_oid, value=value, spec=spec, raw=raw, decode_ok=decode_ok)


@dataclass
class RelativeDistinguishedName:
    """A SET OF AttributeTypeAndValue (usually a singleton)."""

    attributes: list[AttributeTypeAndValue] = field(default_factory=list)

    def encode(self, strict: bool = False) -> Element:
        return encode_set(*[attr.encode(strict=strict) for attr in self.attributes])

    @classmethod
    def parse(cls, element: Element, strict: bool = False) -> "RelativeDistinguishedName":
        return cls(
            attributes=[
                AttributeTypeAndValue.parse(child, strict=strict)
                for child in element.children
            ]
        )

    @property
    def is_multivalued(self) -> bool:
        return len(self.attributes) > 1


@dataclass
class Name:
    """An RDNSequence — the Subject/Issuer type of RFC 5280."""

    rdns: list[RelativeDistinguishedName] = field(default_factory=list)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        attributes: list[tuple[ObjectIdentifier, str]] | None = None,
        spec: StringSpec = UTF8_STRING,
    ) -> "Name":
        """Build a simple one-attribute-per-RDN name (the common case)."""
        name = cls()
        for attr_oid, value in attributes or []:
            name.rdns.append(
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(oid=attr_oid, value=value, spec=spec)]
                )
            )
        return name

    # -- codec -------------------------------------------------------------

    def encode(self, strict: bool = False) -> Element:
        return encode_sequence(*[rdn.encode(strict=strict) for rdn in self.rdns])

    @classmethod
    def parse(cls, element: Element, strict: bool = False) -> "Name":
        return cls(
            rdns=[
                RelativeDistinguishedName.parse(child, strict=strict)
                for child in element.children
            ]
        )

    # -- accessors -----------------------------------------------------------

    # Every accessor scans ``rdns`` live: a DN holds a handful of
    # attributes, so a scan is cheaper than validating any memo of it.

    def attributes(self) -> list[AttributeTypeAndValue]:
        return [attr for rdn in self.rdns for attr in rdn.attributes]

    def get(self, attr_oid: ObjectIdentifier) -> list[str]:
        """All values of the given attribute type, in order."""
        return [attr.value for attr in self.get_attrs(attr_oid)]

    def get_attrs(self, attr_oid: ObjectIdentifier) -> list[AttributeTypeAndValue]:
        dotted = attr_oid.dotted
        return [
            attr
            for rdn in self.rdns
            for attr in rdn.attributes
            if attr.oid.dotted == dotted
        ]

    @property
    def is_empty(self) -> bool:
        return not self.rdns

    def has_duplicates(self, attr_oid: ObjectIdentifier) -> bool:
        return len(self.get(attr_oid)) > 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.encode().encode() == other.encode().encode()

    def __hash__(self) -> int:
        return hash(self.encode().encode())

    # -- string representations ---------------------------------------------

    def rfc4514_string(self) -> str:
        """RFC 4514: reversed RDN order, comma-separated, escaped."""
        parts = []
        for rdn in reversed(self.rdns):
            parts.append(
                "+".join(
                    f"{attr.short_name}={escape_rfc4514(attr.value)}"
                    for attr in rdn.attributes
                )
            )
        return ",".join(parts)

    def rfc2253_string(self) -> str:
        """RFC 2253: the predecessor syntax (hex-escapes non-printables)."""
        parts = []
        for rdn in reversed(self.rdns):
            parts.append(
                "+".join(
                    f"{attr.short_name}={escape_rfc2253(attr.value)}"
                    for attr in rdn.attributes
                )
            )
        return ",".join(parts)

    def rfc1779_string(self) -> str:
        """RFC 1779: comma-space separation, quoted values."""
        parts = []
        for rdn in reversed(self.rdns):
            parts.append(
                " + ".join(
                    f"{attr.short_name}={escape_rfc1779(attr.value)}"
                    for attr in rdn.attributes
                )
            )
        return ", ".join(parts)

    def openssl_oneline(self) -> str:
        """OpenSSL X509_NAME_oneline-style: ``/C=../O=../CN=..``."""
        parts = []
        for rdn in self.rdns:
            for attr in rdn.attributes:
                parts.append(f"/{attr.short_name}={attr.value}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.rfc4514_string()


# ---------------------------------------------------------------------------
# Escaping (RFC 4514 / 2253 / 1779)
# ---------------------------------------------------------------------------

_RFC4514_SPECIALS = set('",+;<>\\')


def escape_rfc4514(value: str) -> str:
    """Escape an attribute value per RFC 4514 Section 2.4."""
    if value == "":
        return ""
    out = []
    for i, ch in enumerate(value):
        if ch in _RFC4514_SPECIALS:
            out.append("\\" + ch)
        elif ch == "\x00":
            out.append("\\00")
        elif ch == "#" and i == 0:
            out.append("\\#")
        elif ch == " " and i in (0, len(value) - 1):
            out.append("\\ ")
        else:
            out.append(ch)
    return "".join(out)


def escape_rfc2253(value: str) -> str:
    """Escape per RFC 2253 Section 2.4 (hex-escape other specials)."""
    if value == "":
        return ""
    out = []
    for i, ch in enumerate(value):
        if ch in _RFC4514_SPECIALS:
            out.append("\\" + ch)
        elif ord(ch) < 0x20 or ch == "\x7f":
            out.append("".join(f"\\{b:02X}" for b in ch.encode("utf-8")))
        elif ch == "#" and i == 0:
            out.append("\\#")
        elif ch == " " and i in (0, len(value) - 1):
            out.append("\\ ")
        else:
            out.append(ch)
    return "".join(out)


_RFC1779_SPECIALS = set(',=+<>#;"\n')


def escape_rfc1779(value: str) -> str:
    """Quote per RFC 1779: wrap in double quotes when specials appear."""
    if not value:
        return '""'
    needs_quoting = (
        any(ch in _RFC1779_SPECIALS for ch in value)
        or value.startswith(" ")
        or value.endswith(" ")
    )
    if not needs_quoting:
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unescape_rfc4514(text: str) -> str:
    """Reverse :func:`escape_rfc4514` (used by tests and parsers)."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt in _RFC4514_SPECIALS or nxt in ' #=':
                out.append(nxt)
                i += 2
                continue
            if i + 2 < len(text) + 1 and _is_hex_pair(text[i + 1 : i + 3]):
                out.append(chr(int(text[i + 1 : i + 3], 16)))
                i += 3
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _is_hex_pair(pair: str) -> bool:
    return len(pair) == 2 and all(c in "0123456789abcdefABCDEF" for c in pair)
