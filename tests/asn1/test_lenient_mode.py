"""Strict-vs-lenient decoding differences across the ASN.1 layer.

The differential harness depends on the two modes diverging exactly
where real permissive parsers diverge from the DER standard.
"""

import pytest

from repro.asn1.der import Element, decode_boolean, decode_integer, parse
from repro.asn1.errors import DERDecodeError
from repro.asn1.tags import Tag, TagClass, UniversalTag


def tlv(tag_byte: int, content: bytes, long_length: bool = False) -> bytes:
    if long_length:
        return bytes([tag_byte, 0x81, len(content)]) + content
    return bytes([tag_byte, len(content)]) + content


class TestLengthLeniency:
    def test_non_minimal_length_strict_vs_lenient(self):
        blob = tlv(0x02, b"\x05", long_length=True)
        with pytest.raises(DERDecodeError):
            parse(blob, strict=True)
        assert decode_integer(parse(blob, strict=False)) == 5

    def test_indefinite_rejected_in_both_modes(self):
        blob = b"\x30\x80\x05\x00\x00\x00"
        for strict in (True, False):
            with pytest.raises(DERDecodeError):
                parse(blob, strict=strict)


class TestValueLeniency:
    def test_nonminimal_integer(self):
        blob = tlv(0x02, b"\x00\x05")
        with pytest.raises(DERDecodeError):
            decode_integer(parse(blob))
        assert decode_integer(parse(blob), strict=False) == 5

    def test_boolean_nonstandard_true(self):
        blob = tlv(0x01, b"\x2a")
        with pytest.raises(DERDecodeError):
            decode_boolean(parse(blob))
        assert decode_boolean(parse(blob), strict=False) is True


class TestSetOrdering:
    def test_unsorted_set_parses_in_both_modes(self):
        # DER requires sorted SET OF; real certificates sometimes break
        # this and parsers accept it — so does our decoder (the linter
        # would be the place to flag it).
        inner_b = tlv(0x02, b"\x02")
        inner_a = tlv(0x02, b"\x01")
        blob = bytes([0x31, len(inner_b + inner_a)]) + inner_b + inner_a
        parsed = parse(blob, strict=True)
        assert [decode_integer(c) for c in parsed.children] == [2, 1]


class TestStructureErrors:
    def test_child_index_error(self):
        element = parse(b"\x30\x00")
        with pytest.raises(DERDecodeError):
            element.child(0)

    def test_primitive_constructed_mismatch(self):
        from repro.asn1.errors import DEREncodeError

        with pytest.raises(DEREncodeError):
            Element.primitive(Tag.universal(UniversalTag.SEQUENCE), b"")
        with pytest.raises(DEREncodeError):
            Element.constructed(Tag.universal(UniversalTag.INTEGER), [])

    def test_nested_truncation_offset_reported(self):
        try:
            parse(b"\x30\x04\x02\x05\x01\x02")
        except DERDecodeError as exc:
            assert exc.offset is not None
        else:  # pragma: no cover
            raise AssertionError("expected DERDecodeError")
