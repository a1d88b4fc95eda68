"""Tests for the escaping-correct SAN text representation."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.tlslibs.profiles import PYOPENSSL
from repro.tlslibs.safe_text import (
    escape_san_value,
    parse_safe_san_string,
    safe_san_string,
    unescape_san_value,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=221)


def make_cert(*names):
    return (
        CertificateBuilder()
        .subject_cn("ok.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(*[GeneralName.dns(n) for n in names]))
        .sign(KEY)
    )


class TestEscaping:
    def test_separators_escaped(self):
        assert escape_san_value("a,b:c") == "a\\,b\\:c"

    def test_controls_hex_escaped(self):
        assert escape_san_value("a\x01b") == "a\\x01b"

    def test_backslash_escaped(self):
        assert escape_san_value("a\\b") == "a\\\\b"

    @given(st.text(alphabet=st.characters(min_codepoint=0x01, max_codepoint=0xFF), max_size=24))
    def test_roundtrip_property(self, value):
        assert unescape_san_value(escape_san_value(value)) == value


class TestForgeryResistance:
    CRAFTED = "a.com, DNS:b.com"

    def test_vulnerable_representation_forged(self):
        crafted = make_cert(self.CRAFTED)
        genuine = make_cert("a.com", "b.com")
        assert PYOPENSSL.san_string(crafted) == PYOPENSSL.san_string(genuine)

    def test_safe_representation_distinguishes(self):
        crafted = make_cert(self.CRAFTED)
        genuine = make_cert("a.com", "b.com")
        assert safe_san_string(crafted) != safe_san_string(genuine)

    def test_safe_roundtrip(self):
        crafted = make_cert(self.CRAFTED)
        pairs = parse_safe_san_string(safe_san_string(crafted))
        assert pairs == [("DNS", self.CRAFTED)]

    def test_genuine_roundtrip(self):
        genuine = make_cert("a.com", "b.com")
        pairs = parse_safe_san_string(safe_san_string(genuine))
        assert pairs == [("DNS", "a.com"), ("DNS", "b.com")]

    def test_no_phantom_entries(self):
        crafted = make_cert(self.CRAFTED)
        pairs = parse_safe_san_string(safe_san_string(crafted))
        assert len(pairs) == 1  # the forged subfield never splits out

    def test_control_char_values_roundtrip(self):
        cert = make_cert("evil\x01name.com")
        pairs = parse_safe_san_string(safe_san_string(cert))
        assert pairs == [("DNS", "evil\x01name.com")]
