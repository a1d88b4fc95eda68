"""Tests for the Section 3.2 test-Unicert generator."""

from repro.asn1 import BMP_STRING, IA5_STRING, PRINTABLE_STRING, UTF8_STRING
from repro.asn1.oid import OID_COMMON_NAME, OID_ORGANIZATION_NAME
from repro.testgen import (
    GN_FIELDS,
    SUBJECT_ATTRIBUTE_OIDS,
    TEST_STRING_SPECS,
    # Renamed so pytest does not try to collect it as a test class.
    TestCertGenerator as UnicertGenerator,
    sample_characters,
)

GEN = UnicertGenerator(seed=3)


class TestSampleCharacters:
    def test_byte_range_complete(self):
        chars = sample_characters(include_blocks=False)
        assert len(chars) == 256
        assert chars[0] == "\x00" and chars[255] == "\xff"

    def test_block_samples_added(self):
        chars = sample_characters()
        assert len(chars) > 256
        assert all(ord(ch) > 0xFF for ch in chars[256:])

    def test_no_surrogates(self):
        assert all(not 0xD800 <= ord(ch) <= 0xDFFF for ch in sample_characters())


class TestAppendixEParameters:
    def test_attribute_oids(self):
        dotted = {oid.dotted for oid in SUBJECT_ATTRIBUTE_OIDS}
        assert "2.5.4.3" in dotted  # CN
        assert "2.5.4.5" in dotted  # serialNumber
        assert "1.2.840.113549.1.9.1" in dotted  # emailAddress
        assert "0.9.2342.19200300.100.1.25" in dotted  # DC
        assert len(SUBJECT_ATTRIBUTE_OIDS) == 9

    def test_string_specs(self):
        names = {spec.name for spec in TEST_STRING_SPECS}
        assert names == {"PrintableString", "UTF8String", "IA5String", "BMPString"}

    def test_gn_fields(self):
        assert GN_FIELDS == ("dns", "rfc822", "uri")


class TestSubjectCases:
    def test_one_rdn_per_attribute(self):
        case = GEN.subject_case(OID_ORGANIZATION_NAME, UTF8_STRING, "中")
        subject = case.certificate.subject
        assert all(len(rdn.attributes) == 1 for rdn in subject.rdns)

    def test_mutated_value_embeds_char(self):
        case = GEN.subject_case(OID_COMMON_NAME, UTF8_STRING, "‮")
        assert "‮" in case.value
        assert case.char_label == "U+202E"

    def test_other_fields_compliant_default(self):
        case = GEN.subject_case(OID_ORGANIZATION_NAME, UTF8_STRING, "Ω")
        assert case.certificate.san_dns_names == ["test.com"]

    def test_declared_spec_on_wire(self):
        case = GEN.subject_case(OID_COMMON_NAME, BMP_STRING, "中")
        attr = case.certificate.subject.attributes()[0]
        assert attr.spec.name == "BMPString"

    def test_control_char_in_printable(self):
        case = GEN.subject_case(OID_COMMON_NAME, PRINTABLE_STRING, "\x01")
        assert "\x01" in case.certificate.subject_common_names[0]


class TestGNCases:
    def test_dns_case(self):
        case = GEN.gn_case("dns", IA5_STRING, "\x00")
        assert case.field == "san:dns"
        san = case.certificate.san
        assert "\x00" in san.names[0].value

    def test_rfc822_case(self):
        case = GEN.gn_case("rfc822", UTF8_STRING, "é")
        assert "é" in case.value
        assert "@" in case.value

    def test_uri_case(self):
        case = GEN.gn_case("uri", IA5_STRING, "~")
        assert case.value.startswith("http://")

    def test_unknown_kind(self):
        import pytest

        with pytest.raises(ValueError):
            GEN.gn_case("x400", IA5_STRING, "a")

    def test_cn_stays_default(self):
        case = GEN.gn_case("dns", UTF8_STRING, "中")
        assert case.certificate.subject_common_names == ["test.com"]


class TestIteration:
    def test_iter_subject_cases_scoped(self):
        chars = ["\x00", "é", "中"]
        cases = list(
            GEN.iter_subject_cases(
                oids=[OID_COMMON_NAME], specs=[UTF8_STRING], chars=chars
            )
        )
        assert len(cases) == 3

    def test_iter_gn_cases_scoped(self):
        cases = list(GEN.iter_gn_cases(kinds=("dns",), specs=[IA5_STRING], chars=["a", "é"]))
        assert len(cases) == 2

    def test_unrepresentable_chars_skipped(self):
        # Astral chars cannot be carried by BMPString.
        cases = list(
            GEN.iter_subject_cases(
                oids=[OID_COMMON_NAME], specs=[BMP_STRING], chars=["\U0001f600", "a"]
            )
        )
        assert len(cases) == 1
