"""Tests for the eight ASN.1 string-type codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.asn1.errors import CharsetError, StringDecodeError
from repro.asn1.strings import (
    BMP_STRING,
    IA5_STRING,
    NUMERIC_STRING,
    PRINTABLE_STRING,
    STRING_SPECS,
    TELETEX_STRING,
    UNIVERSAL_STRING,
    UTF8_STRING,
    VISIBLE_STRING,
    spec_for_tag,
)


class TestPrintableString:
    def test_accepts_standard_charset(self):
        assert PRINTABLE_STRING.encode("Test Org (EU) +1,2.3:=?/-'") == (
            b"Test Org (EU) +1,2.3:=?/-'"
        )

    @pytest.mark.parametrize("bad", ["@", "&", "*", "_", "!", "é", "\x00"])
    def test_rejects_excluded_characters(self, bad):
        with pytest.raises(CharsetError):
            PRINTABLE_STRING.encode(f"abc{bad}")

    def test_lenient_encode_allows_latin1(self):
        assert PRINTABLE_STRING.encode("café", strict=False) == b"caf\xe9"

    def test_strict_decode_rejects_at_sign(self):
        with pytest.raises(CharsetError):
            PRINTABLE_STRING.decode(b"user@host")

    def test_lenient_decode_passes_through(self):
        assert PRINTABLE_STRING.decode(b"user@host", strict=False) == "user@host"

    def test_violations_lists_offenders(self):
        assert PRINTABLE_STRING.violations("a@b&c") == ["&", "@"]


class TestIA5String:
    def test_full_ascii_ok(self):
        text = "".join(chr(cp) for cp in range(0x80))
        assert IA5_STRING.decode(IA5_STRING.encode(text)) == text

    def test_rejects_non_ascii(self):
        with pytest.raises(CharsetError):
            IA5_STRING.encode("ü")

    def test_lenient_high_bytes(self):
        assert IA5_STRING.decode(b"\xfftest", strict=False) == "ÿtest"


class TestNumericString:
    def test_digits_and_space(self):
        assert NUMERIC_STRING.encode("12 34") == b"12 34"

    def test_rejects_letters(self):
        with pytest.raises(CharsetError):
            NUMERIC_STRING.encode("12a")


class TestVisibleString:
    def test_rejects_control(self):
        with pytest.raises(CharsetError):
            VISIBLE_STRING.encode("a\x1bb")

    def test_accepts_printable_ascii(self):
        assert VISIBLE_STRING.encode("~ ok!") == b"~ ok!"


class TestUTF8String:
    def test_multilingual(self):
        text = "株式会社 中国銀行"
        assert UTF8_STRING.decode(UTF8_STRING.encode(text)) == text

    def test_invalid_utf8_raises(self):
        with pytest.raises(StringDecodeError):
            UTF8_STRING.decode(b"\xc3\x28")

    def test_control_chars_allowed_by_codec(self):
        # The *codec* accepts control chars; the linter flags them.
        assert UTF8_STRING.decode(b"a\x00b") == "a\x00b"


class TestBMPString:
    def test_ucs2_roundtrip(self):
        text = "café 中"
        encoded = BMP_STRING.encode(text)
        assert len(encoded) == 2 * len(text)
        assert BMP_STRING.decode(encoded) == text

    def test_rejects_astral(self):
        with pytest.raises(CharsetError):
            BMP_STRING.encode("\U0001f600")

    def test_odd_length_rejected(self):
        with pytest.raises(StringDecodeError):
            BMP_STRING.decode(b"\x00a\x00")

    def test_surrogate_strict_rejected(self):
        with pytest.raises(StringDecodeError):
            BMP_STRING.decode(b"\xd8\x00")

    def test_surrogate_lenient_replaced(self):
        assert BMP_STRING.decode(b"\xd8\x00", strict=False) == "�"

    def test_ascii_misread(self):
        # Paper Section 5.1: a hostname packed into BMP code units is
        # misread as ASCII by an incompatible decoder.
        text = "杩瑨畢攮据"
        assert BMP_STRING.encode(text).decode("ascii") == "githube.cn"


class TestUniversalString:
    def test_ucs4_roundtrip(self):
        text = "aé\U0001f600"
        encoded = UNIVERSAL_STRING.encode(text)
        assert len(encoded) == 4 * len(text)
        assert UNIVERSAL_STRING.decode(encoded) == text

    def test_bad_length_rejected(self):
        with pytest.raises(StringDecodeError):
            UNIVERSAL_STRING.decode(b"\x00\x00\x00")

    def test_out_of_range_code_point(self):
        with pytest.raises(StringDecodeError):
            UNIVERSAL_STRING.decode((0x110000).to_bytes(4, "big"))

    def test_out_of_range_lenient(self):
        assert UNIVERSAL_STRING.decode((0x110000).to_bytes(4, "big"), strict=False) == "�"


class TestTeletexString:
    def test_latin1_model(self):
        assert TELETEX_STRING.decode(b"St\xf6ri AG") == "Störi AG"

    def test_strict_rejects_control(self):
        with pytest.raises(CharsetError):
            TELETEX_STRING.decode(b"a\x01b")

    def test_encode_roundtrip(self):
        assert TELETEX_STRING.decode(TELETEX_STRING.encode("Café")) == "Café"

    def test_cannot_encode_cjk(self):
        with pytest.raises(CharsetError):
            TELETEX_STRING.encode("中", strict=False)


class TestRegistry:
    def test_eight_specs(self):
        assert len(STRING_SPECS) == 8

    def test_spec_for_tag(self):
        assert spec_for_tag(12) is UTF8_STRING
        assert spec_for_tag(19) is PRINTABLE_STRING

    def test_unknown_tag(self):
        with pytest.raises(StringDecodeError):
            spec_for_tag(99)


@given(st.text(alphabet=st.characters(max_codepoint=0x7E, min_codepoint=0x20)))
def test_visible_roundtrip_property(text):
    assert VISIBLE_STRING.decode(VISIBLE_STRING.encode(text)) == text


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
def test_utf8_roundtrip_property(text):
    assert UTF8_STRING.decode(UTF8_STRING.encode(text)) == text


@given(
    st.text(
        alphabet=st.characters(max_codepoint=0xFFFF, blacklist_categories=("Cs",))
    )
)
def test_bmp_roundtrip_property(text):
    assert BMP_STRING.decode(BMP_STRING.encode(text)) == text
