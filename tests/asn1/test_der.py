"""Tests for the DER encoder/decoder."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.asn1.oid import oid
from repro.asn1.der import (
    Element,
    decode_boolean,
    decode_integer,
    decode_length,
    decode_oid,
    decode_string,
    decode_time,
    encode_boolean,
    encode_integer,
    encode_length,
    encode_null,
    encode_oid,
    encode_sequence,
    encode_set,
    encode_string,
    encode_time,
    explicit,
    implicit,
    parse,
    parse_all,
)
from repro.asn1.errors import DERDecodeError
from repro.asn1.strings import PRINTABLE_STRING, UTF8_STRING
from repro.asn1.tags import Tag, TagClass, UniversalTag


class TestLength:
    def test_short_form(self):
        assert encode_length(0) == b"\x00"
        assert encode_length(127) == b"\x7f"

    def test_long_form(self):
        assert encode_length(128) == b"\x81\x80"
        assert encode_length(256) == b"\x82\x01\x00"

    def test_decode_roundtrip(self):
        for n in (0, 1, 127, 128, 255, 256, 65535, 1 << 20):
            length, offset = decode_length(encode_length(n), 0)
            assert length == n

    def test_indefinite_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_length(b"\x80", 0)

    def test_non_minimal_rejected_strict(self):
        with pytest.raises(DERDecodeError):
            decode_length(b"\x81\x05", 0, strict=True)

    def test_non_minimal_allowed_lenient(self):
        assert decode_length(b"\x81\x05", 0, strict=False)[0] == 5

    def test_leading_zero_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_length(b"\x82\x00\x80", 0, strict=True)


class TestInteger:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, -1, -128, -129, 2**64])
    def test_roundtrip(self, value):
        element = encode_integer(value)
        assert decode_integer(parse(element.encode())) == value

    def test_minimal_encoding(self):
        assert encode_integer(0).content == b"\x00"
        assert encode_integer(128).content == b"\x00\x80"
        assert encode_integer(-1).content == b"\xff"

    def test_non_minimal_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_integer(parse(b"\x02\x02\x00\x01"))

    def test_empty_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_integer(Element.primitive(Tag.universal(UniversalTag.INTEGER), b""))


class TestBoolean:
    def test_roundtrip(self):
        assert decode_boolean(parse(encode_boolean(True).encode())) is True
        assert decode_boolean(parse(encode_boolean(False).encode())) is False

    def test_der_values(self):
        assert encode_boolean(True).content == b"\xff"
        assert encode_boolean(False).content == b"\x00"

    def test_nonstandard_strict_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_boolean(parse(b"\x01\x01\x01"))

    def test_nonstandard_lenient(self):
        assert decode_boolean(parse(b"\x01\x01\x01"), strict=False) is True


class TestStructure:
    def test_sequence_roundtrip(self):
        seq = encode_sequence(encode_integer(5), encode_null())
        parsed = parse(seq.encode())
        assert parsed.tag.number == UniversalTag.SEQUENCE
        assert len(parsed.children) == 2
        assert decode_integer(parsed.child(0)) == 5

    def test_set_sorting(self):
        unsorted = encode_set(encode_integer(300), encode_integer(2))
        assert decode_integer(unsorted.child(0)) == 2

    def test_nested(self):
        inner = encode_sequence(encode_string("x", PRINTABLE_STRING))
        outer = encode_sequence(inner, encode_integer(1))
        parsed = parse(outer.encode())
        assert decode_string(parsed.child(0).child(0)) == "x"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DERDecodeError):
            parse(encode_null().encode() + b"\x00")

    def test_parse_all(self):
        blob = encode_integer(1).encode() + encode_integer(2).encode()
        assert [decode_integer(e) for e in parse_all(blob)] == [1, 2]

    def test_truncated_content(self):
        with pytest.raises(DERDecodeError):
            parse(b"\x30\x05\x02\x01")

    def test_empty_input(self):
        with pytest.raises(DERDecodeError):
            parse(b"")

    def test_find(self):
        seq = encode_sequence(encode_integer(7), encode_null())
        found = seq.find(UniversalTag.NULL)
        assert found is not None and found.tag.number == UniversalTag.NULL
        assert seq.find(UniversalTag.BOOLEAN) is None


class TestTagging:
    def test_explicit(self):
        wrapped = explicit(3, encode_integer(9))
        parsed = parse(wrapped.encode())
        assert parsed.tag.cls is TagClass.CONTEXT
        assert parsed.tag.number == 3
        assert decode_integer(parsed.child(0)) == 9

    def test_implicit_primitive(self):
        wrapped = implicit(2, encode_string("a.com", UTF8_STRING))
        assert wrapped.tag.cls is TagClass.CONTEXT
        assert not wrapped.tag.constructed
        assert wrapped.content == b"a.com"

    def test_implicit_constructed(self):
        wrapped = implicit(4, encode_sequence(encode_integer(1)))
        assert wrapped.tag.constructed
        assert len(wrapped.children) == 1


class TestOIDElement:
    def test_roundtrip(self):
        value = oid("1.3.6.1.5.5.7.1.1")
        assert decode_oid(parse(encode_oid(value).encode())) == value


class TestTime:
    def test_utctime_pre_2050(self):
        when = dt.datetime(2024, 5, 6, 12, 30, 0)
        element = encode_time(when)
        assert element.tag.number == UniversalTag.UTC_TIME
        assert decode_time(parse(element.encode())) == when

    def test_generalized_post_2050(self):
        when = dt.datetime(2055, 1, 2, 3, 4, 5)
        element = encode_time(when)
        assert element.tag.number == UniversalTag.GENERALIZED_TIME
        assert decode_time(parse(element.encode())) == when

    def test_utctime_window(self):
        # 500101000000Z means 1950, not 2050.
        element = Element.primitive(
            Tag.universal(UniversalTag.UTC_TIME), b"500101000000Z"
        )
        assert decode_time(element).year == 1950

    def test_malformed_time(self):
        element = Element.primitive(Tag.universal(UniversalTag.UTC_TIME), b"not-a-time")
        with pytest.raises(DERDecodeError):
            decode_time(element)


class TestStringElements:
    def test_declared_tag_decoding(self):
        element = encode_string("hello", UTF8_STRING)
        assert decode_string(parse(element.encode())) == "hello"

    def test_non_string_rejected(self):
        with pytest.raises(DERDecodeError):
            decode_string(encode_integer(5))


@given(st.integers(min_value=-(2**128), max_value=2**128))
def test_integer_roundtrip_property(value):
    assert decode_integer(parse(encode_integer(value).encode())) == value


@given(st.binary(max_size=64))
def test_octet_string_roundtrip_property(data):
    from repro.asn1.der import encode_octet_string

    parsed = parse(encode_octet_string(data).encode())
    assert parsed.content == data


@given(st.lists(st.integers(min_value=0, max_value=2**32), max_size=8))
def test_sequence_of_integers_property(values):
    seq = encode_sequence(*[encode_integer(v) for v in values])
    parsed = parse(seq.encode())
    assert [decode_integer(c) for c in parsed.children] == values
