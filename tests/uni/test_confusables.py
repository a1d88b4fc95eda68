"""Tests for confusable skeletons and invisible-character detection."""

from repro.uni.confusables import (
    has_bidi_control,
    has_invisible,
    is_confusable,
    mixed_script_confusable,
    skeleton,
)


class TestSkeleton:
    def test_cyrillic_paypal(self):
        assert skeleton("раураl") == "paypal"

    def test_fullwidth_folds(self):
        assert skeleton("ｐａｙｐａｌ") == "paypal"

    def test_case_folds(self):
        assert skeleton("PayPal") == "paypal"

    def test_invisible_stripped(self):
        assert skeleton("pay​pal") == "paypal"

    def test_accents_removed(self):
        assert skeleton("pâypal") == "paypal"

    def test_trademark_expansion(self):
        assert skeleton("Vegas™") == skeleton("VegasTM")


class TestConfusable:
    def test_homograph_domains(self):
        assert is_confusable("paypal.com", "раураl.com")

    def test_identical_not_confusable(self):
        assert not is_confusable("a.com", "a.com")

    def test_unrelated(self):
        assert not is_confusable("a.com", "b.org")

    def test_greek_question_mark(self):
        # Paper G1.2: U+037E renders like a semicolon.
        assert skeleton("a;b") == skeleton("a;b")


class TestInvisible:
    def test_zwsp(self):
        assert has_invisible("www​.com")

    def test_word_joiner(self):
        assert has_invisible("a⁠b")

    def test_plain(self):
        assert not has_invisible("plain.com")

    def test_bidi_override(self):
        assert has_bidi_control("www.‮lapyap‬.com")

    def test_lrm(self):
        assert has_bidi_control("‎www")


class TestMixedScript:
    def test_latin_cyrillic_mix(self):
        assert mixed_script_confusable("gооgle")  # Cyrillic о

    def test_pure_latin(self):
        assert not mixed_script_confusable("google")

    def test_pure_cyrillic(self):
        assert not mixed_script_confusable("яндекс")
