"""ASN.1 tag model: classes, universal tag numbers, and tag octet codecs.

Only the single-octet identifier form plus high-tag-number continuation
(rarely needed by X.509 but supported for completeness) is implemented.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DERDecodeError, DEREncodeError


class TagClass(enum.IntEnum):
    """The four ASN.1 tag classes, encoded in identifier bits 8-7."""

    UNIVERSAL = 0
    APPLICATION = 1
    CONTEXT = 2
    PRIVATE = 3


class UniversalTag(enum.IntEnum):
    """Universal tag numbers used by X.509 certificates (X.680 8.4)."""

    BOOLEAN = 1
    INTEGER = 2
    BIT_STRING = 3
    OCTET_STRING = 4
    NULL = 5
    OBJECT_IDENTIFIER = 6
    ENUMERATED = 10
    UTF8_STRING = 12
    SEQUENCE = 16
    SET = 17
    NUMERIC_STRING = 18
    PRINTABLE_STRING = 19
    TELETEX_STRING = 20
    VIDEOTEX_STRING = 21
    IA5_STRING = 22
    UTC_TIME = 23
    GENERALIZED_TIME = 24
    GRAPHIC_STRING = 25
    VISIBLE_STRING = 26
    GENERAL_STRING = 27
    UNIVERSAL_STRING = 28
    BMP_STRING = 30


#: Universal tag numbers whose types are always constructed in DER.
CONSTRUCTED_TYPES = frozenset({UniversalTag.SEQUENCE, UniversalTag.SET})

#: Tag numbers of the eight ASN.1 string types relevant to RFC 5280.
STRING_TAG_NUMBERS = frozenset(
    {
        UniversalTag.UTF8_STRING,
        UniversalTag.NUMERIC_STRING,
        UniversalTag.PRINTABLE_STRING,
        UniversalTag.TELETEX_STRING,
        UniversalTag.IA5_STRING,
        UniversalTag.VISIBLE_STRING,
        UniversalTag.UNIVERSAL_STRING,
        UniversalTag.BMP_STRING,
    }
)


@dataclass(frozen=True)
class Tag:
    """A decoded ASN.1 tag: class, primitive/constructed bit, and number."""

    cls: TagClass
    constructed: bool
    number: int

    def __post_init__(self):
        if self.number < 0:
            raise DEREncodeError(f"negative tag number: {self.number}")

    @classmethod
    def universal(cls, number: int, constructed: bool | None = None) -> "Tag":
        """A UNIVERSAL-class tag, inferring the constructed bit.

        A single-octet identifier returns the shared tag of
        :data:`IDENTIFIER_TAGS`.
        """
        if constructed is None:
            constructed = number in CONSTRUCTED_TYPES
        if 0 <= number < 0x1F:
            return IDENTIFIER_TAGS[(0x20 if constructed else 0) | number]
        return cls(TagClass.UNIVERSAL, constructed, int(number))

    @classmethod
    def context(cls, number: int, constructed: bool = False) -> "Tag":
        """A CONTEXT-class tag, as used by [n] IMPLICIT fields.

        A single-octet identifier returns the shared tag of
        :data:`IDENTIFIER_TAGS`.
        """
        if 0 <= number < 0x1F:
            return IDENTIFIER_TAGS[0x80 | (0x20 if constructed else 0) | number]
        return cls(TagClass.CONTEXT, constructed, number)

    @property
    def is_string(self) -> bool:
        """Whether this tag denotes one of the X.509 string types."""
        return self.cls is TagClass.UNIVERSAL and self.number in STRING_TAG_NUMBERS

    def encode(self) -> bytes:
        """Encode the tag to its identifier octets."""
        leading = (self.cls << 6) | (0x20 if self.constructed else 0)
        if self.number < 0x1F:
            return bytes([leading | self.number])
        # High-tag-number form: 0x1F marker then base-128 with continuation.
        octets = [leading | 0x1F]
        stack = []
        number = self.number
        while number:
            stack.append(number & 0x7F)
            number >>= 7
        for i, septet in enumerate(reversed(stack)):
            last = i == len(stack) - 1
            octets.append(septet if last else septet | 0x80)
        return bytes(octets)

    def __str__(self) -> str:
        if self.cls is TagClass.UNIVERSAL:
            try:
                name = UniversalTag(self.number).name
            except ValueError:
                name = f"UNIVERSAL {self.number}"
        else:
            name = f"[{self.cls.name} {self.number}]"
        return f"{name}{' (constructed)' if self.constructed else ''}"


#: The shared frozen :class:`Tag` of every single-octet identifier,
#: indexed by that octet; ``None`` where the low five bits are 0x1F and
#: the tag number continues in further octets (high-tag-number form).
IDENTIFIER_TAGS: tuple[Tag | None, ...] = tuple(
    None
    if octet & 0x1F == 0x1F
    else Tag(TagClass(octet >> 6), bool(octet & 0x20), octet & 0x1F)
    for octet in range(256)
)


def decode_tag(data: bytes, offset: int = 0) -> tuple[Tag, int]:
    """Decode a tag starting at ``offset``; return ``(tag, next_offset)``."""
    if offset >= len(data):
        raise DERDecodeError("truncated tag", offset)
    leading = data[offset]
    offset += 1
    tag = IDENTIFIER_TAGS[leading]
    if tag is not None:
        return tag, offset
    cls = TagClass(leading >> 6)
    constructed = bool(leading & 0x20)
    # High-tag-number form.
    number = 0
    while True:
        if offset >= len(data):
            raise DERDecodeError("truncated high tag number", offset)
        octet = data[offset]
        offset += 1
        number = (number << 7) | (octet & 0x7F)
        if not octet & 0x80:
            break
        if number == 0:
            raise DERDecodeError("non-minimal high tag number", offset)
    if number < 0x1F:
        raise DERDecodeError("high-tag form used for low tag number", offset)
    return Tag(cls, constructed, number), offset
