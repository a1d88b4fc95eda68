"""Tests for the browser IDN display policy."""

from repro.threats.idn_display import (
    DisplayDecision,
    decide_domain_display,
    decide_label_display,
)


class TestLabelPolicy:
    def test_clean_latin(self):
        verdict = decide_label_display("example")
        assert verdict.decision is DisplayDecision.UNICODE

    def test_clean_german(self):
        assert decide_label_display("münchen").decision is DisplayDecision.UNICODE

    def test_clean_cjk(self):
        assert decide_label_display("中国").decision is DisplayDecision.UNICODE

    def test_japanese_mix_allowed(self):
        assert decide_label_display("日本ひらがなカタカナ").decision is DisplayDecision.UNICODE

    def test_mixed_latin_cyrillic_punycode(self):
        verdict = decide_label_display("gооgle")  # Cyrillic о
        assert verdict.decision is DisplayDecision.PUNYCODE
        assert "mixed scripts" in verdict.reason

    def test_whole_script_confusable(self):
        # Pure-Cyrillic lookalike of an ASCII word.
        verdict = decide_label_display("рауре")
        assert verdict.decision is DisplayDecision.PUNYCODE

    def test_invisible_character(self):
        verdict = decide_label_display("pay​pal")  # ZWSP
        assert verdict.decision is DisplayDecision.PUNYCODE
        assert "invisible" in verdict.reason

    def test_bidi_control(self):
        verdict = decide_label_display("www‮lapyap")
        assert verdict.decision is DisplayDecision.PUNYCODE

    def test_deviation_character(self):
        verdict = decide_label_display("straße")
        assert verdict.decision is DisplayDecision.PUNYCODE
        assert "deviation" in verdict.reason

    def test_alabel_resolves_recursively(self):
        assert decide_label_display("xn--mnchen-3ya").decision is DisplayDecision.UNICODE

    def test_bad_alabel_stays_punycode(self):
        verdict = decide_label_display("xn--www-hn0a")  # LRM + www
        assert verdict.decision is DisplayDecision.PUNYCODE

    def test_protected_skeleton(self):
        from repro.uni.confusables import skeleton

        protected = frozenset({skeleton("paypal")})
        verdict = decide_label_display("раураl", protected)  # Cyrillic mix
        assert verdict.decision is DisplayDecision.PUNYCODE


class TestDomainPolicy:
    def test_clean_domain(self):
        verdict = decide_domain_display("münchen.de")
        assert verdict.decision is DisplayDecision.UNICODE
        assert verdict.displayed == "münchen.de"

    def test_deceptive_label_punycoded(self):
        verdict = decide_domain_display("pay​pal.com")  # ZWSP
        assert verdict.decision is DisplayDecision.PUNYCODE
        assert verdict.displayed.startswith("xn--")

    def test_ascii_passthrough(self):
        verdict = decide_domain_display("plain.example.com")
        assert verdict.decision is DisplayDecision.UNICODE
        assert verdict.displayed == "plain.example.com"
