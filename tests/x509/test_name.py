"""Tests for DN model, codec, and the three string representations."""

import pytest
from hypothesis import given, strategies as st

from repro.asn1.der import parse
from repro.asn1.strings import BMP_STRING, PRINTABLE_STRING, TELETEX_STRING, UTF8_STRING
from repro.asn1.oid import (
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_ORGANIZATION_NAME,
)
from repro.x509.name import (
    AttributeTypeAndValue,
    Name,
    RelativeDistinguishedName,
    escape_rfc1779,
    escape_rfc2253,
    escape_rfc4514,
    unescape_rfc4514,
)


def simple_name(**kwargs) -> Name:
    attrs = []
    mapping = {"c": OID_COUNTRY_NAME, "o": OID_ORGANIZATION_NAME, "cn": OID_COMMON_NAME}
    for key, value in kwargs.items():
        attrs.append((mapping[key], value))
    return Name.build(attrs)


class TestCodec:
    def test_roundtrip(self):
        name = simple_name(c="DE", o="Störi AG", cn="störi.de")
        parsed = Name.parse(parse(name.encode().encode()))
        assert parsed.get(OID_COMMON_NAME) == ["störi.de"]
        assert parsed.get(OID_ORGANIZATION_NAME) == ["Störi AG"]

    def test_declared_spec_preserved(self):
        name = Name.build([(OID_COUNTRY_NAME, "DE")], spec=PRINTABLE_STRING)
        parsed = Name.parse(parse(name.encode().encode()))
        assert parsed.attributes()[0].spec is PRINTABLE_STRING

    def test_raw_bytes_roundtrip(self):
        # Invalid UTF-8 bytes declared as UTF8String must survive.
        attr = AttributeTypeAndValue(
            oid=OID_COMMON_NAME, value="", spec=UTF8_STRING, raw=b"bad\xff\xfe"
        )
        name = Name(rdns=[RelativeDistinguishedName([attr])])
        parsed = Name.parse(parse(name.encode().encode()))
        assert parsed.attributes()[0].raw == b"bad\xff\xfe"
        assert not parsed.attributes()[0].decode_ok

    def test_multivalued_rdn(self):
        rdn = RelativeDistinguishedName(
            [
                AttributeTypeAndValue(OID_COMMON_NAME, "a"),
                AttributeTypeAndValue(OID_ORGANIZATION_NAME, "b"),
            ]
        )
        name = Name(rdns=[rdn])
        parsed = Name.parse(parse(name.encode().encode()))
        assert parsed.rdns[0].is_multivalued

    def test_teletex_roundtrip(self):
        name = Name.build([(OID_ORGANIZATION_NAME, "Störi AG")], spec=TELETEX_STRING)
        parsed = Name.parse(parse(name.encode().encode()))
        assert parsed.get(OID_ORGANIZATION_NAME) == ["Störi AG"]

    def test_bmp_roundtrip(self):
        name = Name.build([(OID_COMMON_NAME, "中国")], spec=BMP_STRING)
        parsed = Name.parse(parse(name.encode().encode()))
        assert parsed.get(OID_COMMON_NAME) == ["中国"]

    def test_empty_name(self):
        assert Name().is_empty
        assert Name.parse(parse(Name().encode().encode())).is_empty


class TestAccessors:
    def test_duplicates(self):
        name = simple_name(cn="a")
        name.rdns.append(
            RelativeDistinguishedName([AttributeTypeAndValue(OID_COMMON_NAME, "b")])
        )
        assert name.has_duplicates(OID_COMMON_NAME)
        assert name.get(OID_COMMON_NAME) == ["a", "b"]

    def test_equality_is_der_equality(self):
        assert simple_name(cn="x") == simple_name(cn="x")
        assert simple_name(cn="x") != simple_name(cn="y")

    def test_hashable(self):
        assert len({simple_name(cn="x"), simple_name(cn="x")}) == 1


class TestStringRepresentations:
    def test_rfc4514_order_reversed(self):
        name = simple_name(c="DE", o="Org", cn="host")
        assert name.rfc4514_string() == "CN=host,O=Org,C=DE"

    def test_rfc4514_escapes_comma(self):
        name = simple_name(o="Acme, Inc.")
        assert name.rfc4514_string() == "O=Acme\\, Inc."

    def test_rfc4514_escapes_leading_hash(self):
        name = simple_name(o="#value")
        assert "\\#" in name.rfc4514_string()

    def test_rfc4514_escapes_edges_spaces(self):
        name = simple_name(o=" padded ")
        assert name.rfc4514_string() == "O=\\ padded\\ "

    def test_rfc2253_hex_escapes_controls(self):
        name = simple_name(cn="a\x00b")
        assert "\\00" in name.rfc2253_string()

    def test_rfc1779_quotes(self):
        name = simple_name(o="Acme, Inc.")
        assert name.rfc1779_string() == 'O="Acme, Inc."'

    def test_openssl_oneline(self):
        name = simple_name(c="DE", cn="host")
        assert name.openssl_oneline() == "/C=DE/CN=host"

    def test_plus_between_multivalue(self):
        rdn = RelativeDistinguishedName(
            [
                AttributeTypeAndValue(OID_COMMON_NAME, "a"),
                AttributeTypeAndValue(OID_ORGANIZATION_NAME, "b"),
            ]
        )
        assert Name(rdns=[rdn]).rfc4514_string() == "CN=a+O=b"


class TestEscaping:
    @pytest.mark.parametrize("ch", list(',+"\\<>;'))
    def test_specials_escaped(self, ch):
        assert escape_rfc4514(f"a{ch}b") == f"a\\{ch}b"

    def test_nul_escaped(self):
        assert escape_rfc4514("a\x00b") == "a\\00b"

    def test_unescape_roundtrip(self):
        for value in ["Acme, Inc.", "#x", " pad ", "a+b", 'q"q', "back\\slash"]:
            assert unescape_rfc4514(escape_rfc4514(value)) == value

    def test_1779_plain_unquoted(self):
        assert escape_rfc1779("plain") == "plain"

    def test_1779_empty(self):
        assert escape_rfc1779("") == '""'

    def test_2253_del_escaped(self):
        assert escape_rfc2253("a\x7fb") == "a\\7Fb"

    @given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=20))
    def test_escape_unescape_property(self, value):
        assert unescape_rfc4514(escape_rfc4514(value)) == value
