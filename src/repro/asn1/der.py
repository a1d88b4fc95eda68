"""DER (Distinguished Encoding Rules) encoder and decoder.

The decoder walks the input once into a table of :data:`Node` tuples:
every node records its offsets in the buffer and nothing else, so no
content is copied until a typed decoder slices it.  ``parse`` and
``parse_all`` build the public :class:`Element` tree from those nodes;
the X.509 decoders read the nodes directly.  Both modes reject indefinite
lengths, truncation, overruns and trailing octets; ``strict=True`` also
rejects non-minimal (long-form or zero-padded) lengths, which
``strict=False`` tolerates as permissive real-world parsers do — the
paper's differential harness relies on both modes.  Neither mode checks
that SET OF members are sorted: real certificates break that rule and
parsers accept them, so the linter is the place to flag it.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from .errors import DERDecodeError, DEREncodeError
from .oid import OIDS_BY_VALUE, ObjectIdentifier
from .strings import STRING_SPECS, StringSpec
from .tags import IDENTIFIER_TAGS, Tag, TagClass, UniversalTag, decode_tag

# ---------------------------------------------------------------------------
# Length octets
# ---------------------------------------------------------------------------


def encode_length(length: int) -> bytes:
    """Encode a definite length in the minimal DER form."""
    if length < 0:
        raise DEREncodeError(f"negative length: {length}")
    if length < 0x80:
        return bytes([length])
    octets = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(octets)]) + octets


def decode_length(data: bytes, offset: int, strict: bool = True) -> tuple[int, int]:
    """Decode length octets at ``offset``; return ``(length, next_offset)``."""
    if offset >= len(data):
        raise DERDecodeError("truncated length", offset)
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    if first == 0x80:
        raise DERDecodeError("indefinite length is not allowed in DER", offset - 1)
    count = first & 0x7F
    if offset + count > len(data):
        raise DERDecodeError("truncated long-form length", offset)
    raw = data[offset : offset + count]
    offset += count
    length = int.from_bytes(raw, "big")
    if strict:
        if raw[0] == 0:
            raise DERDecodeError("non-minimal length (leading zero)", offset - count)
        if length < 0x80:
            raise DERDecodeError("non-minimal length (long form for short value)", offset - count)
    return length, offset


# ---------------------------------------------------------------------------
# Element tree
# ---------------------------------------------------------------------------


@dataclass
class Element:
    """A decoded (or to-be-encoded) ASN.1 element.

    ``content`` holds the raw content octets for primitive elements;
    ``children`` holds sub-elements for constructed ones.  An element
    built for encoding may set either.
    """

    tag: Tag
    content: bytes = b""
    children: list["Element"] = field(default_factory=list)
    #: Byte offset of the element's identifier octet in the parsed input.
    offset: int = 0
    #: Byte offset just past the element's last content octet, so
    #: ``data[offset:end]`` is the element exactly as received (0 for
    #: an element built for encoding).
    end: int = 0

    # -- constructors -------------------------------------------------

    @classmethod
    def primitive(cls, tag: Tag, content: bytes) -> "Element":
        if tag.constructed:
            raise DEREncodeError(f"primitive() given constructed tag {tag}")
        return cls(tag=tag, content=content)

    @classmethod
    def constructed(cls, tag: Tag, children: list["Element"]) -> "Element":
        if not tag.constructed:
            raise DEREncodeError(f"constructed() given primitive tag {tag}")
        return cls(tag=tag, children=list(children))

    # -- introspection -------------------------------------------------

    @property
    def is_constructed(self) -> bool:
        return self.tag.constructed

    def child(self, index: int) -> "Element":
        try:
            return self.children[index]
        except IndexError:
            raise DERDecodeError(
                f"element {self.tag} has no child at index {index}"
            ) from None

    def find(self, tag_number: int, cls: TagClass = TagClass.UNIVERSAL) -> "Element | None":
        """Return the first direct child with the given tag, if any."""
        for child in self.children:
            if child.tag.number == tag_number and child.tag.cls is cls:
                return child
        return None

    # -- encoding -------------------------------------------------------

    def content_octets(self) -> bytes:
        if self.is_constructed:
            return b"".join(child.encode() for child in self.children)
        return self.content

    def encode(self) -> bytes:
        content = self.content_octets()
        return self.tag.encode() + encode_length(len(content)) + content

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_constructed:
            return f"<{self.tag} children={len(self.children)}>"
        return f"<{self.tag} {self.content[:16].hex()}{'…' if len(self.content) > 16 else ''}>"


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

#: A decoded element as a plain tuple over the input buffer:
#: ``(tag, start, content_start, end, children)``.  ``data[start:end]``
#: is the element as received and ``data[content_start:end]`` its
#: content octets; ``children`` is a list of child nodes for a
#: constructed element and the empty tuple for a primitive one.
Node = tuple


def _walk(data: bytes, offset: int, strict: bool) -> tuple[Node, int]:
    """Decode the element at ``offset`` and everything inside it.

    One loop over the buffer with an explicit stack of open constructed
    elements, emitting :data:`Node` tuples.  Single-octet identifiers
    map straight to their shared :class:`Tag` through
    :data:`IDENTIFIER_TAGS`; short-form lengths are read inline.
    Children are bounded by the input, not by their parent; a parent's
    length is checked once its last child ends.
    """
    size = len(data)
    tags = IDENTIFIER_TAGS
    top: list[Node] = []
    siblings = top
    parent_end = size
    stack: list[tuple[list[Node], int]] = []
    while True:
        start = offset
        if offset >= size:
            raise DERDecodeError("truncated tag", offset)
        tag = tags[data[offset]]
        if tag is None:
            tag, offset = decode_tag(data, offset)
        else:
            offset += 1
        if offset >= size:
            raise DERDecodeError("truncated length", offset)
        length = data[offset]
        if length < 0x80:
            offset += 1
        else:
            length, offset = decode_length(data, offset, strict)
        end = offset + length
        if end > size:
            raise DERDecodeError(f"content overruns input ({length} octets promised)", offset)
        if tag.constructed:
            children: list[Node] = []
            siblings.append((tag, start, offset, end, children))
            stack.append((siblings, parent_end))
            siblings = children
            parent_end = end
        else:
            siblings.append((tag, start, offset, end, ()))
            offset = end
        while stack and offset >= parent_end:
            if offset != parent_end:
                raise DERDecodeError("constructed content length mismatch", offset)
            siblings, parent_end = stack.pop()
        if not stack:
            return top[0], offset


def parse_node(data: bytes, strict: bool = True) -> Node:
    """Walk a single top-level DER element; reject trailing octets.

    ``data`` must be ``bytes``: the node's offsets index it, and the
    typed decoders slice it.
    """
    if not data:
        raise DERDecodeError("empty input")
    node, offset = _walk(data, 0, strict)
    if offset != len(data):
        raise DERDecodeError(f"{len(data) - offset} trailing octet(s) after element", offset)
    return node


def node_child(node: Node, index: int) -> Node:
    """The child at ``index``, with :meth:`Element.child`'s error."""
    try:
        return node[4][index]
    except IndexError:
        raise DERDecodeError(f"element {node[0]} has no child at index {index}") from None


def node_content(data: bytes, node: Node) -> bytes:
    """A node's :attr:`Element.content`: ``b""`` for a constructed node."""
    tag, _start, content_start, end, _children = node
    return b"" if tag.constructed else data[content_start:end]


def to_element(data: bytes, node: Node) -> Element:
    """Build the :class:`Element` tree of ``node`` (without recursion)."""
    root = Element(node[0], node_content(data, node), [], node[1], node[3])
    pending = [(root.children, node[4])]
    while pending:
        out, children = pending.pop()
        for tag, start, content_start, end, grandchildren in children:
            if tag.constructed:
                element = Element(tag, b"", [], start, end)
                if grandchildren:
                    pending.append((element.children, grandchildren))
            else:
                element = Element(tag, data[content_start:end], [], start, end)
            out.append(element)
    return root


def element_node(element: Element) -> tuple[bytes, Node]:
    """``(data, node)`` for an :class:`Element`: its encoding, walked.

    Lets the typed decoders' ``Element`` adapters run the node decode
    body; offsets in errors are relative to the element's own encoding.
    """
    data = element.encode()
    return data, parse_node(data, strict=False)


def parse(data: bytes, strict: bool = True) -> Element:
    """Parse a single top-level DER element; reject trailing octets."""
    if not data:
        raise DERDecodeError("empty input")
    data = bytes(data)
    return to_element(data, parse_node(data, strict))


def parse_all(data: bytes, strict: bool = True) -> list[Element]:
    """Parse a concatenation of top-level DER elements."""
    elements = []
    offset = 0
    data = bytes(data)
    while offset < len(data):
        node, offset = _walk(data, offset, strict)
        elements.append(to_element(data, node))
    return elements


# ---------------------------------------------------------------------------
# Primitive value codecs
# ---------------------------------------------------------------------------


def encode_integer(value: int) -> Element:
    """Encode an INTEGER in the minimal two's-complement form."""
    length = max(1, (value.bit_length() + 8) // 8) if value >= 0 else (
        ((-value - 1).bit_length() // 8) + 1
    )
    raw = value.to_bytes(length, "big", signed=True)
    # Minimal form: strip redundant sign octets.
    while len(raw) > 1 and (
        (raw[0] == 0x00 and raw[1] < 0x80) or (raw[0] == 0xFF and raw[1] >= 0x80)
    ):
        raw = raw[1:]
    return Element.primitive(Tag.universal(UniversalTag.INTEGER), raw)


def _integer(raw: bytes, offset: int, strict: bool) -> int:
    if not raw:
        raise DERDecodeError("empty INTEGER", offset)
    if strict and len(raw) > 1:
        if (raw[0] == 0x00 and raw[1] < 0x80) or (raw[0] == 0xFF and raw[1] >= 0x80):
            raise DERDecodeError("non-minimal INTEGER", offset)
    return int.from_bytes(raw, "big", signed=True)


def decode_integer(element: Element, strict: bool = True) -> int:
    """Decode an INTEGER; strict mode rejects non-minimal forms."""
    return _integer(element.content, element.offset, strict)


def node_integer(data: bytes, node: Node, strict: bool = True) -> int:
    """:func:`decode_integer` of a node."""
    return _integer(node_content(data, node), node[1], strict)


def encode_boolean(value: bool) -> Element:
    """Encode a BOOLEAN (DER: FF for true, 00 for false)."""
    return Element.primitive(Tag.universal(UniversalTag.BOOLEAN), b"\xff" if value else b"\x00")


def _boolean(raw: bytes, offset: int, strict: bool) -> bool:
    if len(raw) != 1:
        raise DERDecodeError("BOOLEAN must be one octet", offset)
    octet = raw[0]
    if strict and octet not in (0x00, 0xFF):
        raise DERDecodeError(f"DER BOOLEAN must be 00 or FF, got {octet:#04x}", offset)
    return octet != 0


def decode_boolean(element: Element, strict: bool = True) -> bool:
    """Decode a BOOLEAN; strict mode enforces the DER value set."""
    return _boolean(element.content, element.offset, strict)


def node_boolean(data: bytes, node: Node, strict: bool = True) -> bool:
    """:func:`decode_boolean` of a node."""
    return _boolean(node_content(data, node), node[1], strict)


def encode_null() -> Element:
    """Encode a NULL."""
    return Element.primitive(Tag.universal(UniversalTag.NULL), b"")


def encode_oid(value: ObjectIdentifier) -> Element:
    """Encode an OBJECT IDENTIFIER element."""
    return Element.primitive(Tag.universal(UniversalTag.OBJECT_IDENTIFIER), value.encode_value())


def _oid(raw: bytes) -> ObjectIdentifier:
    known = OIDS_BY_VALUE.get(raw)
    if known is not None:
        return known
    return ObjectIdentifier.decode_value(raw)


def decode_oid(element: Element) -> ObjectIdentifier:
    """Decode an OBJECT IDENTIFIER element.

    Registered OIDs are looked up by their content octets; any other
    value is decoded arc by arc.
    """
    return _oid(element.content)


def node_oid(data: bytes, node: Node) -> ObjectIdentifier:
    """:func:`decode_oid` of a node."""
    return _oid(node_content(data, node))


def encode_octet_string(value: bytes) -> Element:
    """Encode an OCTET STRING."""
    return Element.primitive(Tag.universal(UniversalTag.OCTET_STRING), bytes(value))


def encode_bit_string(value: bytes, unused_bits: int = 0) -> Element:
    """Encode a BIT STRING with the given unused-bit count."""
    if not 0 <= unused_bits <= 7:
        raise DEREncodeError(f"unused bit count out of range: {unused_bits}")
    return Element.primitive(
        Tag.universal(UniversalTag.BIT_STRING), bytes([unused_bits]) + bytes(value)
    )


def _bit_string(raw: bytes, offset: int) -> tuple[bytes, int]:
    if not raw:
        raise DERDecodeError("empty BIT STRING", offset)
    unused = raw[0]
    if unused > 7:
        raise DERDecodeError("BIT STRING unused bits > 7", offset)
    return raw[1:], unused


def decode_bit_string(element: Element) -> tuple[bytes, int]:
    """Decode a BIT STRING; returns (bits, unused_bit_count)."""
    return _bit_string(element.content, element.offset)


def node_bit_string(data: bytes, node: Node) -> tuple[bytes, int]:
    """:func:`decode_bit_string` of a node."""
    return _bit_string(node_content(data, node), node[1])


def encode_string(text: str, spec: StringSpec, strict: bool = True) -> Element:
    """Encode ``text`` under the given ASN.1 string type."""
    return Element.primitive(Tag.universal(spec.tag_number), spec.encode(text, strict=strict))


def decode_string(element: Element, strict: bool = True) -> str:
    """Decode a string element according to its *declared* tag."""
    spec = STRING_SPECS.get(element.tag.number)
    if spec is None or element.tag.cls is not TagClass.UNIVERSAL:
        raise DERDecodeError(f"{element.tag} is not a string type", element.offset)
    return spec.decode(element.content, strict=strict)


def encode_sequence(*children: Element) -> Element:
    """Encode a SEQUENCE of the given child elements."""
    return Element.constructed(Tag.universal(UniversalTag.SEQUENCE), list(children))


def encode_set(*children: Element, sort: bool = True) -> Element:
    """Encode a SET OF; DER requires the encodings in ascending order."""
    items = list(children)
    if sort:
        items.sort(key=lambda el: el.encode())
    return Element.constructed(Tag.universal(UniversalTag.SET), items)


def explicit(tag_number: int, inner: Element) -> Element:
    """Wrap ``inner`` in an EXPLICIT [n] context tag."""
    return Element.constructed(Tag.context(tag_number, constructed=True), [inner])


def implicit(tag_number: int, inner: Element) -> Element:
    """Re-tag ``inner`` with an IMPLICIT [n] context tag."""
    retagged = Tag(TagClass.CONTEXT, inner.tag.constructed, tag_number)
    if inner.tag.constructed:
        return Element(tag=retagged, children=inner.children)
    return Element(tag=retagged, content=inner.content)


# ---------------------------------------------------------------------------
# Time codecs
# ---------------------------------------------------------------------------

_UTC_FORMAT = "%y%m%d%H%M%SZ"
_GENERALIZED_FORMAT = "%Y%m%d%H%M%SZ"


def encode_time(value: _dt.datetime) -> Element:
    """Encode per RFC 5280 4.1.2.5: UTCTime up to 2049, then GeneralizedTime."""
    if value.tzinfo is not None:
        value = value.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    if value.year < 2050:
        return Element.primitive(
            Tag.universal(UniversalTag.UTC_TIME), value.strftime(_UTC_FORMAT).encode("ascii")
        )
    return Element.primitive(
        Tag.universal(UniversalTag.GENERALIZED_TIME),
        value.strftime(_GENERALIZED_FORMAT).encode("ascii"),
    )


_UTC_TIME = int(UniversalTag.UTC_TIME)
_GENERALIZED_TIME = int(UniversalTag.GENERALIZED_TIME)


def _time(tag: Tag, raw: bytes, offset: int) -> _dt.datetime:
    number = tag.number
    try:
        if number == _UTC_TIME:
            if len(raw) == 13 and raw[12] == 0x5A and raw[:12].isdigit():
                year = int(raw[0:2])
                # RFC 5280: two-digit years 00-49 mean 20xx, 50-99 mean 19xx.
                return _dt.datetime(
                    year + (2000 if year < 50 else 1900), int(raw[2:4]), int(raw[4:6]),
                    int(raw[6:8]), int(raw[8:10]), int(raw[10:12]),
                )
        elif number == _GENERALIZED_TIME:
            if len(raw) == 15 and raw[14] == 0x5A and raw[:14].isdigit():
                return _dt.datetime(
                    int(raw[0:4]), int(raw[4:6]), int(raw[6:8]),
                    int(raw[8:10]), int(raw[10:12]), int(raw[12:14]),
                )
    except ValueError:
        pass
    text = raw.decode("ascii", errors="replace")
    try:
        if number == _UTC_TIME:
            parsed = _dt.datetime.strptime(text, _UTC_FORMAT)
            # RFC 5280: two-digit years 00-49 mean 20xx, 50-99 mean 19xx.
            if parsed.year >= 2050:
                parsed = parsed.replace(year=parsed.year - 100)
            return parsed
        if number == _GENERALIZED_TIME:
            return _dt.datetime.strptime(text, _GENERALIZED_FORMAT)
    except ValueError as exc:
        raise DERDecodeError(f"malformed time {text!r}: {exc}", offset) from exc
    raise DERDecodeError(f"{tag} is not a time type", offset)


def decode_time(element: Element) -> _dt.datetime:
    """Decode a UTCTime or GeneralizedTime per RFC 5280 rules.

    The fixed-width all-digit ``Z`` forms RFC 5280 mandates are read
    field by field; anything else, and any field ``datetime`` rejects,
    goes through ``strptime``, which words the error.
    """
    return _time(element.tag, element.content, element.offset)


def node_time(data: bytes, node: Node) -> _dt.datetime:
    """:func:`decode_time` of a node."""
    return _time(node[0], node_content(data, node), node[1])
