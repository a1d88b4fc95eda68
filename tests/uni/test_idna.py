"""Tests for IDNA2008 label validation and A/U-label conversion."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.uni.errors import IDNAError
from repro.uni.idna import (
    alabel_to_ulabel,
    alabel_violations,
    derived_property,
    domain_to_ascii,
    domain_to_unicode,
    has_unpermitted,
    is_idn,
    is_valid_ulabel,
    ulabel_to_alabel,
    ulabel_violations,
    unpermitted_violations,
)


class TestDerivedProperty:
    def test_lowercase_ascii_pvalid(self):
        for ch in "az09-":
            assert derived_property(ord(ch)) == "PVALID"

    def test_uppercase_disallowed(self):
        assert derived_property(ord("A")) == "DISALLOWED"

    def test_symbols_disallowed(self):
        for ch in "@!$ _":
            assert derived_property(ord(ch)) == "DISALLOWED"

    def test_bidi_controls_disallowed(self):
        # U+202E RIGHT-TO-LEFT OVERRIDE: a format (Cf) character.
        assert derived_property(0x202E) == "DISALLOWED"
        assert derived_property(0x200E) == "DISALLOWED"

    def test_zwj_contextj(self):
        assert derived_property(0x200C) == "CONTEXTJ"
        assert derived_property(0x200D) == "CONTEXTJ"

    def test_han_pvalid(self):
        assert derived_property(ord("中")) == "PVALID"

    def test_sharp_s_exception(self):
        assert derived_property(0x00DF) == "PVALID"

    def test_unassigned(self):
        assert derived_property(0x0378) == "UNASSIGNED"

    def test_middle_dot_contexto(self):
        assert derived_property(0x00B7) == "CONTEXTO"


class TestHasUnpermitted:
    """``has_unpermitted`` is ``bool(unpermitted_violations(...))``."""

    def test_every_bmp_code_point(self):
        for cp in range(0x10000):
            if 0xD800 <= cp <= 0xDFFF:
                continue
            ch = chr(cp)
            assert has_unpermitted(ch) == bool(unpermitted_violations(ch)), hex(cp)

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(
            st.one_of(
                st.sampled_from("abz09-AZ_.\u200d\u0301\u0660\u06f1"),
                st.characters(min_codepoint=0x0590, max_codepoint=0x08FF),
                st.characters(min_codepoint=0x00C0, max_codepoint=0x024F),
                st.characters(min_codepoint=0x0300, max_codepoint=0x036F),
                st.characters(min_codepoint=0x4E00, max_codepoint=0x4E40),
                st.characters(min_codepoint=0x0080, max_codepoint=sys.maxunicode),
            ),
            max_size=10,
        )
    )
    def test_mixed_direction_labels(self, label):
        assert has_unpermitted(label) == bool(unpermitted_violations(label))

    def test_bidi_only_violations(self):
        # Every code point is PVALID; only the Bidi rule objects.
        for label in ("שלוםabc", "1אב", "ا١1"):
            assert all(
                derived_property(ord(ch)) not in ("DISALLOWED", "UNASSIGNED")
                for ch in label
            )
            assert unpermitted_violations(label)
            assert has_unpermitted(label)
        assert not has_unpermitted("שלום")


class TestULabelValidation:
    def test_valid_ulabel(self):
        assert is_valid_ulabel("münchen")
        assert is_valid_ulabel("中国")

    def test_uppercase_invalid(self):
        assert any("DISALLOWED" in p for p in ulabel_violations("München"))

    def test_leading_hyphen(self):
        assert any("starts with hyphen" in p for p in ulabel_violations("-münchen"))

    def test_hyphen_34(self):
        assert any("positions 3 and 4" in p for p in ulabel_violations("ab--cü"))

    def test_leading_combining_mark(self):
        assert any("combining mark" in p for p in ulabel_violations("́abcü"))

    def test_nfc_required(self):
        # "é" as e + combining acute is NFD, not NFC.
        assert any("NFC" in p for p in ulabel_violations("café"))

    def test_pure_ascii_not_ulabel(self):
        assert any("pure ASCII" in p for p in ulabel_violations("plain"))

    def test_empty(self):
        assert ulabel_violations("") == ["empty label"]

    def test_bidi_mixed_numerals(self):
        # Arabic letter with both Arabic-Indic and European digits.
        label = "ا٠1"
        assert any("numerals" in p for p in ulabel_violations(label))

    def test_invisible_characters_flagged(self):
        # Zero-width space is DISALLOWED per IDNA2008.
        assert any("U+200B" in p for p in ulabel_violations("ab​ü"))


class TestConversion:
    def test_roundtrip(self):
        alabel = ulabel_to_alabel("münchen")
        assert alabel == "xn--mnchen-3ya"
        assert alabel_to_ulabel(alabel) == "münchen"

    def test_invalid_rejected_on_encode(self):
        with pytest.raises(IDNAError):
            ulabel_to_alabel("ab cd")

    def test_missing_prefix(self):
        with pytest.raises(IDNAError):
            alabel_to_ulabel("mnchen-3ya")

    def test_undeccodable_alabel(self):
        with pytest.raises(IDNAError):
            alabel_to_ulabel("xn--!!!")

    def test_validate_false_skips_checks(self):
        # Decoding a label containing disallowed chars succeeds raw.
        crafted = ulabel_to_alabel("münchen", validate=False)
        assert alabel_to_ulabel(crafted, validate=False) == "münchen"


class TestALabelViolations:
    def test_clean_alabel(self):
        assert alabel_violations("xn--mnchen-3ya") == []

    def test_paper_example_bidi_in_label(self):
        # "xn--www-hn0a" decodes to "‎www" (LRM + www): P1.3 example.
        problems = alabel_violations("xn--www-hn0a")
        assert any("U+200E" in p for p in problems)

    def test_unconvertible(self):
        problems = alabel_violations("xn--999999999")
        assert any("unconvertible" in p for p in problems)

    def test_no_prefix(self):
        assert alabel_violations("plain") == ["missing xn-- prefix"]

    def test_hypercompressed(self):
        # xn-- payload that decodes to pure ASCII.
        problems = alabel_violations("xn--abc-")
        assert problems  # flagged one way or another


class TestDomainHelpers:
    def test_domain_to_unicode(self):
        assert domain_to_unicode("www.xn--mnchen-3ya.de") == "www.münchen.de"

    def test_domain_to_ascii(self):
        assert domain_to_ascii("www.münchen.de") == "www.xn--mnchen-3ya.de"

    def test_is_idn(self):
        assert is_idn("xn--mnchen-3ya.de")
        assert is_idn("münchen.de")
        assert not is_idn("example.com")
