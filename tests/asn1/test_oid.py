"""Tests for OBJECT IDENTIFIER encoding/decoding and the OID registry."""

import pytest
from hypothesis import given, strategies as st

from repro.asn1.errors import DERDecodeError, DEREncodeError
from repro.asn1.oid import (
    ObjectIdentifier,
    OID_COMMON_NAME,
    OID_EMAIL_ADDRESS,
    OID_EXT_SAN,
    OID_NAMES,
    oid,
)


class TestOIDEncode:
    def test_common_name(self):
        assert OID_COMMON_NAME.encode_value() == bytes([0x55, 0x04, 0x03])

    def test_email_address(self):
        assert OID_EMAIL_ADDRESS.encode_value().hex() == "2a864886f70d010901"

    def test_san_extension(self):
        assert OID_EXT_SAN.encode_value() == bytes([0x55, 0x1D, 0x11])

    def test_large_arcs(self):
        # 2.999 encodes as 0x88 0x37 per the X.690 example.
        assert oid("2.999").encode_value() == bytes([0x88, 0x37])

    def test_invalid_single_arc(self):
        with pytest.raises(DEREncodeError):
            oid("2")

    def test_invalid_root(self):
        with pytest.raises(DEREncodeError):
            oid("3.1")

    def test_second_arc_range(self):
        with pytest.raises(DEREncodeError):
            oid("0.40")

    def test_malformed_text(self):
        with pytest.raises(DEREncodeError):
            oid("1.two.3")


class TestOIDDecode:
    def test_roundtrip_known(self):
        for dotted in OID_NAMES:
            value = oid(dotted)
            assert ObjectIdentifier.decode_value(value.encode_value()) == value

    def test_empty_rejected(self):
        with pytest.raises(DERDecodeError):
            ObjectIdentifier.decode_value(b"")

    def test_truncated_rejected(self):
        with pytest.raises(DERDecodeError):
            ObjectIdentifier.decode_value(bytes([0x55, 0x84]))

    def test_non_minimal_rejected(self):
        with pytest.raises(DERDecodeError):
            ObjectIdentifier.decode_value(bytes([0x55, 0x80, 0x03]))


class TestOIDNames:
    def test_known_name(self):
        assert OID_COMMON_NAME.name == "CN"
        assert OID_EXT_SAN.name == "subjectAltName"

    def test_unknown_name_falls_back_to_dotted(self):
        assert oid("1.2.3.4.5").name == "1.2.3.4.5"

    def test_str(self):
        assert str(OID_COMMON_NAME) == "2.5.4.3"


@given(
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=6),
    st.integers(min_value=0, max_value=2),
)
def test_oid_roundtrip_property(tail, root):
    second = 39 if root < 2 else 999
    dotted = ".".join(str(arc) for arc in (root, second, *tail))
    value = oid(dotted)
    assert ObjectIdentifier.decode_value(value.encode_value()) == value
