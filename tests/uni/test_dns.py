"""Tests for DNS LDH syntax checks (RFC 1034 / RFC 5890)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uni.dns import (
    is_ldh_label,
    is_reserved_ldh_label,
    is_valid_dns_name,
    is_xn_label,
    label_violations,
    name_violations,
)


class TestLabels:
    def test_valid(self):
        assert is_ldh_label("example")
        assert is_ldh_label("a1-b2")
        assert is_ldh_label("x" * 63)

    def test_empty(self):
        assert label_violations("") == ["empty label"]

    def test_too_long(self):
        assert any("63" in p for p in label_violations("x" * 64))

    def test_bad_characters(self):
        assert any("non-LDH" in p for p in label_violations("under_score"))
        assert any("non-LDH" in p for p in label_violations("spa ce"))
        assert any("non-LDH" in p for p in label_violations("ünïcode"))

    def test_hyphen_edges(self):
        assert any("starts with hyphen" in p for p in label_violations("-lead"))
        assert any("ends with hyphen" in p for p in label_violations("trail-"))

    def test_underscore_allowance(self):
        assert label_violations("_dmarc", allow_underscore=True) == []

    def test_reserved_ldh(self):
        assert is_reserved_ldh_label("xn--abc")
        assert is_reserved_ldh_label("ab--cd")
        assert not is_reserved_ldh_label("abc")

    def test_xn_detection(self):
        assert is_xn_label("xn--mnchen-3ya")
        assert is_xn_label("XN--MNCHEN-3YA")
        assert not is_xn_label("example")


class TestIsLdhLabel:
    """``is_ldh_label`` is ``not label_violations(...)``."""

    @pytest.mark.parametrize(
        "label",
        ["", "a", "-", "a-", "-a", "a-b", "A1", "x" * 63, "x" * 64, "a_b", "ü", "a b", "a.b"],
    )
    def test_edges(self, label):
        assert is_ldh_label(label) == (not label_violations(label))

    @settings(max_examples=400, deadline=None)
    @given(st.text(st.sampled_from("aZ09-_.é \u0131"), max_size=70))
    def test_generated(self, label):
        assert is_ldh_label(label) == (not label_violations(label))


class TestNames:
    def test_valid(self):
        assert is_valid_dns_name("www.example.com")
        assert is_valid_dns_name("*.example.com")
        assert is_valid_dns_name("example.com.")  # trailing dot tolerated

    def test_wildcard_rejected_when_disallowed(self):
        assert not is_valid_dns_name("*.example.com", allow_wildcard=False)

    def test_empty(self):
        assert name_violations("") == ["empty name"]

    def test_too_long(self):
        name = ".".join(["a" * 60] * 5)
        assert any("253" in p for p in name_violations(name))

    def test_empty_interior_label(self):
        assert any("empty label" in p for p in name_violations("a..b.com"))

    def test_violations_name_label_position(self):
        problems = name_violations("ok.bad_label.com")
        assert any("label 2" in p for p in problems)
