"""Tests for the browser rendering models (Appendix F.1 / Table 14)."""

import datetime as dt

from repro.threats.spoofing import (
    ALL_BROWSERS,
    CHROMIUM,
    FIREFOX,
    SAFARI,
    apply_bidi_overrides,
    chrome_warning_spoof_demo,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=71)


class TestBidiOverride:
    def test_figure7_example(self):
        # "www.‮lapyap‬.com" displays as "www.paypal.com".
        assert apply_bidi_overrides("www.‮lapyap‬.com") == "www.paypal.com"

    def test_plain_text_unchanged(self):
        assert apply_bidi_overrides("www.example.com") == "www.example.com"

    def test_unterminated_override(self):
        assert apply_bidi_overrides("ab‮cd") == "abdc"

    def test_nested_overrides(self):
        assert apply_bidi_overrides("‮ab‮cd‬ef‬") == "fecdba"

    def test_invisible_stripped(self):
        assert apply_bidi_overrides("pay​pal") == "paypal"


class TestRenderingPolicies:
    def test_three_families(self):
        assert {b.name for b in ALL_BROWSERS} == {"Firefox", "Safari", "Chromium-based"}

    def test_safari_marks_c0(self):
        # Safari/Chromium show visible markers for C0 controls (G1.1).
        assert "�" in SAFARI.render_value("evil\x01entity")

    def test_firefox_raw_c0(self):
        # Firefox renders robustly (raw), a potentially insecure choice.
        assert "\x01" in FIREFOX.render_value("evil\x01entity")

    def test_layout_controls_invisible_everywhere(self):
        # G1.1: invisible layout codes hide in all tested browsers.
        for browser in ALL_BROWSERS:
            assert browser.render_value("pay​pal") == "paypal", browser.name

    def test_homograph_not_detected(self):
        # G1.2: no browser flags Cyrillic-Latin homographs in the viewer.
        for browser in ALL_BROWSERS:
            assert not browser.flags_homograph("gооgle"), browser.name

    def test_greek_question_mark_substitution(self):
        # G1.2: U+037E misrendered as a semicolon, violating Unicode.
        assert CHROMIUM.render_value("a;b") == "a;b"
        assert ";" in CHROMIUM.render_value("a;b")


class TestWarningPages:
    def _cert(self, cn, san=None):
        builder = CertificateBuilder().subject_cn(cn).not_before(dt.datetime(2024, 1, 1))
        if san:
            builder.add_extension(subject_alt_name(GeneralName.dns(san)))
        return builder.sign(KEY)

    def test_chromium_uses_subject(self):
        cert = self._cert("subject.example.com", san="san.example.com")
        assert CHROMIUM.warning_page_identity(cert) == "subject.example.com"

    def test_firefox_uses_san(self):
        cert = self._cert("subject.example.com", san="san.example.com")
        assert FIREFOX.warning_page_identity(cert) == "san.example.com"

    def test_bidi_spoofed_warning(self):
        # Figure 7: the crafted CN renders as the trusted brand.
        cert = self._cert("www.‮lapyap‬.com")
        assert CHROMIUM.warning_page_identity(cert) == "www.paypal.com"
        assert CHROMIUM.spoof_feasible(cert)

    def test_clean_cert_not_spoofable(self):
        cert = self._cert("plain.example.com")
        assert not CHROMIUM.spoof_feasible(cert)

    def test_demo_helper(self):
        crafted, displayed = chrome_warning_spoof_demo()
        assert displayed == "www.paypal.com"
        assert crafted != displayed


class TestViewerComponents:
    def test_gecko_webkit_components(self):
        assert FIREFOX.components() == ("digest", "details", "general")
        assert SAFARI.components() == ("digest", "details", "general")

    def test_chromium_all_parts(self):
        assert CHROMIUM.components() == ("all",)

    def test_general_pane_skips_nonhost_values(self):
        assert FIREFOX.render_component("evil entity text", "general") is None
        assert FIREFOX.render_component("host.example.com", "general") == "host.example.com"

    def test_unknown_component_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FIREFOX.render_component("x", "warning-pane")

    def test_chromium_single_policy(self):
        assert CHROMIUM.render_component("pay​pal", "all") == "paypal"
