"""Tests for GeneralName encoding/parsing."""

import pytest

from repro.asn1.der import parse
from repro.asn1.errors import DERDecodeError
from repro.asn1.strings import BMP_STRING, UTF8_STRING
from repro.asn1.oid import OID_COMMON_NAME, OID_ON_SMTP_UTF8_MAILBOX
from repro.x509.general_name import GeneralName, GeneralNameKind
from repro.x509.name import Name


class TestDNSName:
    def test_roundtrip(self):
        gn = GeneralName.dns("test.com")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.kind is GeneralNameKind.DNS_NAME
        assert parsed.value == "test.com"
        assert parsed.decode_ok

    def test_non_ia5_bytes_flagged(self):
        # A DNSName deliberately encoded with UTF-8 CJK content.
        gn = GeneralName.dns("中国.com", spec=UTF8_STRING)
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert not parsed.decode_ok

    def test_embedded_attribute_string(self):
        # Paper 5.2: DNSName="a.com DNS:b.com" — legal IA5, malicious text.
        gn = GeneralName.dns("a.com DNS:b.com")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.value == "a.com DNS:b.com"

    def test_str(self):
        assert str(GeneralName.dns("a.com")) == "DNS:a.com"


class TestEmailAndURI:
    def test_email_roundtrip(self):
        gn = GeneralName.email("user@example.com")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.kind is GeneralNameKind.RFC822_NAME
        assert parsed.value == "user@example.com"

    def test_uri_roundtrip(self):
        gn = GeneralName.uri("http://crl.example.com/r.crl")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.kind is GeneralNameKind.URI
        assert str(parsed).startswith("URI:")

    def test_uri_with_control_char(self):
        # Paper 5.2 CRL example: "http://ssl\x01test.com".
        gn = GeneralName.uri("http://ssl\x01test.com")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert "\x01" in parsed.value


class TestIPAddress:
    def test_v4(self):
        gn = GeneralName.ip("192.0.2.1")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.value == "192.0.2.1"
        assert parsed.raw == bytes([192, 0, 2, 1])

    def test_v6(self):
        gn = GeneralName.ip("2001:db8::1")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.value == "2001:db8::1"

    def test_bad_length_becomes_hex(self):
        from repro.asn1.der import Element
        from repro.asn1.tags import Tag

        raw = Element.primitive(Tag.context(7), b"\x01\x02\x03")
        parsed = GeneralName.parse(raw)
        assert parsed.value == "010203"


class TestDirectoryName:
    def test_roundtrip(self):
        inner = Name.build([(OID_COMMON_NAME, "Entity")])
        gn = GeneralName.directory(inner)
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.kind is GeneralNameKind.DIRECTORY_NAME
        assert parsed.name.get(OID_COMMON_NAME) == ["Entity"]
        assert str(parsed) == "DirName:CN=Entity"


class TestOtherName:
    def test_smtp_utf8_mailbox(self):
        gn = GeneralName.smtp_utf8_mailbox("用户@例子.com")
        parsed = GeneralName.parse(parse(gn.encode().encode()))
        assert parsed.kind is GeneralNameKind.OTHER_NAME
        assert parsed.other_name_oid == OID_ON_SMTP_UTF8_MAILBOX
        assert parsed.value == "用户@例子.com"


class TestErrors:
    def test_universal_tag_rejected(self):
        from repro.asn1.der import encode_integer

        with pytest.raises(DERDecodeError):
            GeneralName.parse(encode_integer(5))

    def test_unknown_context_tag(self):
        from repro.asn1.der import Element
        from repro.asn1.tags import Tag

        with pytest.raises(DERDecodeError):
            GeneralName.parse(Element.primitive(Tag.context(12), b""))
