"""Tests for ASN.1 tag encoding and decoding."""

import pytest

from repro.asn1.errors import DERDecodeError
from repro.asn1.tags import Tag, TagClass, UniversalTag, decode_tag, STRING_TAG_NUMBERS


class TestTagEncode:
    def test_universal_primitive(self):
        assert Tag.universal(UniversalTag.INTEGER).encode() == b"\x02"

    def test_universal_constructed_inferred(self):
        assert Tag.universal(UniversalTag.SEQUENCE).encode() == b"\x30"
        assert Tag.universal(UniversalTag.SET).encode() == b"\x31"

    def test_context_tag(self):
        assert Tag.context(0).encode() == b"\x80"
        assert Tag.context(3, constructed=True).encode() == b"\xa3"

    def test_string_tags(self):
        assert Tag.universal(UniversalTag.UTF8_STRING).encode() == b"\x0c"
        assert Tag.universal(UniversalTag.PRINTABLE_STRING).encode() == b"\x13"
        assert Tag.universal(UniversalTag.IA5_STRING).encode() == b"\x16"
        assert Tag.universal(UniversalTag.BMP_STRING).encode() == b"\x1e"

    def test_high_tag_number(self):
        tag = Tag(TagClass.CONTEXT, False, 31)
        assert tag.encode() == b"\x9f\x1f"
        tag = Tag(TagClass.CONTEXT, False, 201)
        assert tag.encode() == b"\x9f\x81\x49"

    def test_negative_tag_number_rejected(self):
        with pytest.raises(Exception):
            Tag(TagClass.UNIVERSAL, False, -1)


class TestTagDecode:
    def test_roundtrip_low(self):
        for number in (1, 2, 3, 12, 19, 22, 30):
            tag = Tag.universal(number)
            decoded, offset = decode_tag(tag.encode())
            assert decoded == tag
            assert offset == 1

    def test_roundtrip_high(self):
        tag = Tag(TagClass.PRIVATE, True, 12345)
        decoded, offset = decode_tag(tag.encode())
        assert decoded == tag
        assert offset == len(tag.encode())

    def test_truncated(self):
        with pytest.raises(DERDecodeError):
            decode_tag(b"")

    def test_truncated_high_form(self):
        with pytest.raises(DERDecodeError):
            decode_tag(b"\x9f\x81")

    def test_high_form_for_low_number_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_tag(b"\x9f\x1e")

    def test_offset_decoding(self):
        data = b"\xff\xff\x02"
        tag, offset = decode_tag(data, 2)
        assert tag.number == UniversalTag.INTEGER
        assert offset == 3


class TestTagProperties:
    def test_is_string(self):
        assert Tag.universal(UniversalTag.UTF8_STRING).is_string
        assert not Tag.universal(UniversalTag.INTEGER).is_string
        assert not Tag.context(12).is_string

    def test_string_tag_numbers_complete(self):
        assert len(STRING_TAG_NUMBERS) == 8

    def test_str_rendering(self):
        assert "UTF8_STRING" in str(Tag.universal(UniversalTag.UTF8_STRING))
        assert "CONTEXT" in str(Tag.context(0))
