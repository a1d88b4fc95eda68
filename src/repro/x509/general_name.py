"""GeneralName — the identifier CHOICE of RFC 5280 Section 4.2.1.6."""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass

from ..asn1.der import (
    Element,
    Node,
    element_node,
    encode_oid,
    explicit,
    node_child,
    node_content,
    node_oid,
    parse_node,
    to_element,
)
from ..asn1.errors import ASN1Error, DERDecodeError
from ..asn1.oid import ObjectIdentifier, OID_ON_SMTP_UTF8_MAILBOX
from ..asn1.strings import IA5_STRING, StringSpec
from ..asn1.tags import Tag, TagClass
from .name import Name


class GeneralNameKind(enum.IntEnum):
    """Context tag numbers of the GeneralName CHOICE."""

    OTHER_NAME = 0
    RFC822_NAME = 1
    DNS_NAME = 2
    X400_ADDRESS = 3
    DIRECTORY_NAME = 4
    EDI_PARTY_NAME = 5
    URI = 6
    IP_ADDRESS = 7
    REGISTERED_ID = 8


#: Each GeneralName alternative by its context tag number.
_KINDS = {int(kind): kind for kind in GeneralNameKind}

#: GeneralName alternatives whose standard type is IA5String.
IA5_KINDS = frozenset(
    {GeneralNameKind.RFC822_NAME, GeneralNameKind.DNS_NAME, GeneralNameKind.URI}
)


def mailbox_encoding_problem(raw) -> str | None:
    """Why a SmtpUTF8Mailbox payload is not a UTF8String, or ``None``.

    ``raw`` is the otherName's ``[0] EXPLICIT`` value as
    :meth:`GeneralName.from_node` keeps it.  RFC 9598 Section 3 makes
    the mailbox a UTF8String: this is the one definition the mailbox
    lint reports and the compiled ``smtp`` scope's ``SMTP_NOT_UTF8``
    bit reads.
    """
    try:
        inner = node_child(parse_node(raw, strict=False), 0)
        if inner[0].number != 12:
            return f"SmtpUTF8Mailbox uses tag {inner[0].number}, MUST be UTF8String"
        node_content(raw, inner).decode("utf-8")
    except Exception as exc:
        return f"SmtpUTF8Mailbox not valid UTF-8: {exc}"
    return None


@dataclass
class GeneralName:
    """One GeneralName value.

    For the IA5String alternatives ``value`` is the text and ``spec``
    records the string type *actually used on the wire* — compliant
    certificates always use IA5String, but the paper's test Unicerts
    deliberately vary this.  For DIRECTORY_NAME ``name`` is set; for
    IP_ADDRESS / OTHER_NAME the payload is in ``raw``.
    """

    kind: GeneralNameKind
    value: str = ""
    spec: StringSpec = IA5_STRING
    name: Name | None = None
    raw: bytes | None = None
    other_name_oid: ObjectIdentifier | None = None
    decode_ok: bool = True

    @property
    def char_set(self) -> frozenset:
        """The distinct characters of ``value``."""
        return frozenset(self.value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def dns(cls, value: str, spec: StringSpec = IA5_STRING) -> "GeneralName":
        return cls(kind=GeneralNameKind.DNS_NAME, value=value, spec=spec)

    @classmethod
    def email(cls, value: str, spec: StringSpec = IA5_STRING) -> "GeneralName":
        return cls(kind=GeneralNameKind.RFC822_NAME, value=value, spec=spec)

    @classmethod
    def uri(cls, value: str, spec: StringSpec = IA5_STRING) -> "GeneralName":
        return cls(kind=GeneralNameKind.URI, value=value, spec=spec)

    @classmethod
    def directory(cls, name: Name) -> "GeneralName":
        return cls(kind=GeneralNameKind.DIRECTORY_NAME, name=name)

    @classmethod
    def ip(cls, address: str) -> "GeneralName":
        packed = ipaddress.ip_address(address).packed
        return cls(kind=GeneralNameKind.IP_ADDRESS, value=address, raw=packed)

    @classmethod
    def smtp_utf8_mailbox(cls, mailbox: str) -> "GeneralName":
        """otherName carrying an internationalized mailbox (RFC 9598)."""
        inner = explicit(0, Element.primitive(Tag.universal(12), mailbox.encode("utf-8")))
        return cls(
            kind=GeneralNameKind.OTHER_NAME,
            value=mailbox,
            raw=inner.encode(),
            other_name_oid=OID_ON_SMTP_UTF8_MAILBOX,
        )

    # -- codec -------------------------------------------------------------

    def encode(self, strict: bool = False) -> Element:
        tag_number = int(self.kind)
        if self.kind is GeneralNameKind.DIRECTORY_NAME:
            if self.name is None:
                raise DERDecodeError("directoryName without a Name")
            # directoryName is an EXPLICITLY tagged CHOICE member.
            return explicit(tag_number, self.name.encode(strict=strict))
        if self.kind is GeneralNameKind.IP_ADDRESS:
            return Element.primitive(Tag.context(tag_number), self.raw or b"")
        if self.kind is GeneralNameKind.OTHER_NAME:
            children = []
            if self.other_name_oid is not None:
                children.append(encode_oid(self.other_name_oid))
            if self.raw:
                from ..asn1.der import parse as _parse

                children.append(_parse(self.raw, strict=False))
            return Element.constructed(Tag.context(tag_number, constructed=True), children)
        if self.kind is GeneralNameKind.REGISTERED_ID:
            return Element.primitive(
                Tag.context(tag_number), ObjectIdentifier(self.value).encode_value()
            )
        # The IA5String-typed alternatives are IMPLICIT primitives: the
        # context tag replaces the string tag, so ``spec`` only governs
        # how the *content octets* are produced.  When ``raw`` is set it
        # wins, so arbitrary (even undecodable) octets survive a
        # parse → encode round trip — the fuzz witness corpus relies on
        # this exactness.
        if self.raw is not None and self.kind in IA5_KINDS:
            content = self.raw
        else:
            content = self.spec.encode(self.value, strict=strict)
        return Element.primitive(Tag.context(tag_number), content)

    @classmethod
    def from_node(cls, data: bytes, node: Node, strict: bool = False) -> "GeneralName":
        tag, start, _content_start, _end, children = node
        if tag.cls is not TagClass.CONTEXT:
            raise DERDecodeError(f"GeneralName expects a context tag, got {tag}")
        kind = _KINDS.get(tag.number)
        if kind is None:
            raise DERDecodeError(f"unknown GeneralName tag [{tag.number}]", start)
        if kind is GeneralNameKind.DIRECTORY_NAME:
            if not children:
                raise DERDecodeError("empty directoryName", start)
            return cls(kind=kind, name=Name.from_node(data, children[0], strict=strict))
        content = node_content(data, node)
        if kind is GeneralNameKind.IP_ADDRESS:
            try:
                value = str(ipaddress.ip_address(content))
            except ValueError:
                value = content.hex()
            return cls(kind=kind, value=value, raw=content)
        if kind is GeneralNameKind.OTHER_NAME:
            name_oid = None
            value = ""
            raw = b""
            if children:
                name_oid = node_oid(data, children[0])
                if len(children) > 1:
                    payload = children[1]
                    # Re-encoded as Element.encode() gives it: the octets
                    # received, unless a length inside was non-minimal.
                    raw = to_element(data, payload).encode()
                    if name_oid == OID_ON_SMTP_UTF8_MAILBOX and payload[4]:
                        inner = node_content(data, payload[4][0])
                        value = inner.decode("utf-8", errors="replace")
            return cls(kind=kind, value=value, raw=raw, other_name_oid=name_oid)
        if kind is GeneralNameKind.REGISTERED_ID:
            return cls(kind=kind, value=ObjectIdentifier.decode_value(content).dotted)
        # IA5String alternatives: the wire carries only content octets
        # under the IMPLICIT context tag, so the declared string type is
        # not visible.  Standard parsers assume IA5String.
        try:
            value = IA5_STRING.decode(content, strict=True)
            decode_ok = True
        except ASN1Error:
            decode_ok = False
            value = content.decode("latin-1", errors="replace")
        return cls(kind=kind, value=value, spec=IA5_STRING, raw=content, decode_ok=decode_ok)

    @classmethod
    def parse(cls, element: Element, strict: bool = False) -> "GeneralName":
        """Decode an :class:`Element` through :meth:`from_node`."""
        return cls.from_node(*element_node(element), strict=strict)

    # -- presentation ---------------------------------------------------------

    def type_prefix(self) -> str:
        """The X.509-text prefix used by ``openssl x509 -text`` output."""
        return {
            GeneralNameKind.OTHER_NAME: "othername",
            GeneralNameKind.RFC822_NAME: "email",
            GeneralNameKind.DNS_NAME: "DNS",
            GeneralNameKind.X400_ADDRESS: "X400Name",
            GeneralNameKind.DIRECTORY_NAME: "DirName",
            GeneralNameKind.EDI_PARTY_NAME: "EdiPartyName",
            GeneralNameKind.URI: "URI",
            GeneralNameKind.IP_ADDRESS: "IP Address",
            GeneralNameKind.REGISTERED_ID: "Registered ID",
        }[self.kind]

    def __str__(self) -> str:
        if self.kind is GeneralNameKind.DIRECTORY_NAME and self.name is not None:
            return f"{self.type_prefix()}:{self.name.rfc4514_string()}"
        return f"{self.type_prefix()}:{self.value}"
