"""The Section 3.2 test-Unicert generator.

Implements the paper's three construction rules:

(i)   simplify ASN.1 structures — one RDN per DN, one attribute per RDN;
(ii)  generate attribute values by inserting special Unicode characters
      into preset compliant defaults;
(iii) mutate only one field per certificate, keeping every other
      required field at a standard-compliant default value
      (e.g. ``test.com`` for DNSName).

Character sampling follows Appendix E: every code point in
U+0000..U+00FF plus one assigned character from each Unicode block
(surrogates excluded), across the ASN.1 string types and GeneralName
forms the paper lists.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Iterator

from ..asn1.strings import BMP_STRING, IA5_STRING, PRINTABLE_STRING, StringSpec, UTF8_STRING
from ..asn1.oid import (
    OID_BUSINESS_CATEGORY,
    OID_COMMON_NAME,
    OID_EMAIL_ADDRESS,
    OID_DOMAIN_COMPONENT,
    OID_LOCALITY_NAME,
    OID_ORGANIZATIONAL_UNIT,
    OID_ORGANIZATION_NAME,
    OID_SERIAL_NUMBER,
    OID_STATE_OR_PROVINCE,
    ObjectIdentifier,
)
from ..uni.blocks import sample_block_characters
from ..x509.builder import CertificateBuilder
from ..x509.certificate import Certificate
from ..x509.extensions import subject_alt_name
from ..x509.general_name import GeneralName
from ..x509.keys import SimPrivateKey, generate_keypair

#: Appendix E: the attribute OIDs mutated in test certificates.
SUBJECT_ATTRIBUTE_OIDS: list[ObjectIdentifier] = [
    OID_COMMON_NAME,  # 2.5.4.3
    OID_SERIAL_NUMBER,  # 2.5.4.5
    OID_LOCALITY_NAME,  # 2.5.4.7
    OID_STATE_OR_PROVINCE,  # 2.5.4.8
    OID_ORGANIZATION_NAME,  # 2.5.4.10
    OID_ORGANIZATIONAL_UNIT,  # 2.5.4.11
    OID_BUSINESS_CATEGORY,  # 2.5.4.15
    OID_DOMAIN_COMPONENT,  # 0.9.2342.19200300.100.1.25
    OID_EMAIL_ADDRESS,  # 1.2.840.113549.1.9.1
]

#: Appendix E: the ASN.1 string types used for mutated attributes.
TEST_STRING_SPECS: list[StringSpec] = [
    PRINTABLE_STRING,
    UTF8_STRING,
    IA5_STRING,
    BMP_STRING,
]

#: Appendix E: the GeneralName forms exercised.
GN_FIELDS = ("dns", "rfc822", "uri")

#: The compliant defaults each un-mutated field keeps (rule iii).
DEFAULT_DNS = "test.com"
DEFAULT_VALUE = "Test Value"
DEFAULT_EMAIL = "user@test.com"
DEFAULT_URI = "http://test.com/path"


def sample_characters(
    include_byte_range: bool = True,
    include_blocks: bool = True,
) -> list[str]:
    """The paper's character sample: U+0000..U+00FF + one per block."""
    chars: list[str] = []
    if include_byte_range:
        chars.extend(chr(cp) for cp in range(0x100))
    if include_blocks:
        for ch in sample_block_characters():
            if ord(ch) > 0xFF:  # avoid duplicating the byte range
                chars.append(ch)
    return chars


@dataclass
class TestCase:
    """One generated test certificate plus its mutation metadata."""

    field: str  # e.g. "subject:CN", "san:dns"
    spec_name: str
    char: str
    value: str
    certificate: Certificate

    @property
    def char_label(self) -> str:
        return f"U+{ord(self.char):04X}"


class TestCertGenerator:
    """Crafts the mutated Unicerts the differential harness consumes."""

    def __init__(self, seed: int = 0):
        self._key: SimPrivateKey = generate_keypair(seed=seed)

    # -- builders -----------------------------------------------------

    def _base_builder(self) -> CertificateBuilder:
        return (
            CertificateBuilder()
            .serial(1000)
            .not_before(_dt.datetime(2024, 1, 1))
            .validity_days(90)
        )

    def subject_case(
        self, oid: ObjectIdentifier, spec: StringSpec, char: str
    ) -> TestCase:
        """Mutate one Subject attribute; everything else stays default."""
        value = f"Te{char}st"
        builder = self._base_builder()
        builder.subject_attr(oid, value, spec)
        builder.add_extension(subject_alt_name(GeneralName.dns(DEFAULT_DNS)))
        cert = builder.sign(self._key)
        from ..asn1.oid import OID_NAMES

        label = OID_NAMES.get(oid.dotted, oid.dotted)
        return TestCase(
            field=f"subject:{label}",
            spec_name=spec.name,
            char=char,
            value=value,
            certificate=cert,
        )

    def gn_case(self, kind: str, spec: StringSpec, char: str) -> TestCase:
        """Mutate one SAN GeneralName; CN stays at the default."""
        if kind == "dns":
            value = f"te{char}st.com"
            gn = GeneralName.dns(value, spec=spec)
        elif kind == "rfc822":
            value = f"us{char}er@test.com"
            gn = GeneralName.email(value, spec=spec)
        elif kind == "uri":
            value = f"http://te{char}st.com/"
            gn = GeneralName.uri(value, spec=spec)
        else:
            raise ValueError(f"unknown GeneralName kind {kind!r}")
        builder = self._base_builder()
        builder.subject_attr(OID_COMMON_NAME, DEFAULT_DNS, UTF8_STRING)
        builder.add_extension(subject_alt_name(gn))
        cert = builder.sign(self._key)
        return TestCase(
            field=f"san:{kind}",
            spec_name=spec.name,
            char=char,
            value=value,
            certificate=cert,
        )

    # -- corpus iteration ------------------------------------------------

    def iter_subject_cases(
        self,
        oids: list[ObjectIdentifier] | None = None,
        specs: list[StringSpec] | None = None,
        chars: list[str] | None = None,
    ) -> Iterator[TestCase]:
        for oid in oids if oids is not None else SUBJECT_ATTRIBUTE_OIDS:
            for spec in specs if specs is not None else TEST_STRING_SPECS:
                for char in chars if chars is not None else sample_characters():
                    try:
                        yield self.subject_case(oid, spec, char)
                    except Exception:
                        # Characters unrepresentable under the declared
                        # type (e.g. astral in BMPString) are skipped,
                        # as the paper's generator does.
                        continue

    def iter_gn_cases(
        self,
        kinds: tuple[str, ...] = GN_FIELDS,
        specs: list[StringSpec] | None = None,
        chars: list[str] | None = None,
    ) -> Iterator[TestCase]:
        for kind in kinds:
            for spec in specs if specs is not None else TEST_STRING_SPECS:
                for char in chars if chars is not None else sample_characters():
                    try:
                        yield self.gn_case(kind, spec, char)
                    except Exception:
                        continue
