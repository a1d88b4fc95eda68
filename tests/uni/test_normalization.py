"""Tests for NFC checks and whitespace canonicalization."""

from hypothesis import given, strategies as st

from repro.uni.normalization import (
    canonical_whitespace,
    case_fold_equal,
    has_alternate_whitespace,
    is_nfc,
    nfc,
    nfc_violations,
)


class TestNFC:
    def test_composed_is_nfc(self):
        assert is_nfc("café")

    def test_decomposed_is_not_nfc(self):
        assert not is_nfc("café")

    def test_nfc_composes(self):
        assert nfc("café") == "café"

    def test_violations_empty_for_nfc(self):
        assert nfc_violations("Île-de-France") == []

    def test_violations_describe_position(self):
        problems = nfc_violations("Île")
        assert problems and "U+" in problems[0]

    @given(st.text(max_size=30))
    def test_nfc_idempotent(self, text):
        assert nfc(nfc(text)) == nfc(text)


class TestCaseFold:
    def test_simple(self):
        assert case_fold_equal("GERMANY", "germany")

    def test_sharp_s(self):
        assert case_fold_equal("STRASSE", "straße")

    def test_different(self):
        assert not case_fold_equal("DE", "FR")


class TestWhitespace:
    def test_detects_nbsp(self):
        assert has_alternate_whitespace("PEDDY SHIELD")

    def test_detects_ideographic_space(self):
        assert has_alternate_whitespace("株式会社　中国銀行")

    def test_plain_space_ok(self):
        assert not has_alternate_whitespace("Plain Name")

    def test_canonicalization(self):
        assert canonical_whitespace("株式会社　中国銀行") == "株式会社 中国銀行"

    def test_collapses_runs(self):
        assert canonical_whitespace("a    b") == "a b"

    def test_strips_edges(self):
        assert canonical_whitespace(" name ") == "name"
