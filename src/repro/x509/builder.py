"""Fluent certificate builder, including deliberately malformed output.

The builder is the workhorse of the paper's Section 3.2 generator: it
can emit perfectly compliant certificates *and* Unicerts with illegal
characters, wrong string types, duplicate attributes, or raw injected
bytes — all of which must still be well-formed DER at the TLV level.
"""

from __future__ import annotations

import datetime as _dt

from ..asn1.der import (
    Element,
    encode_bit_string,
    encode_integer,
    encode_length,
    encode_sequence,
    encode_time,
    explicit,
)
from ..asn1.oid import ObjectIdentifier, OID_COMMON_NAME
from ..asn1.strings import StringSpec, UTF8_STRING
from ..asn1.tags import Tag, UniversalTag
from .certificate import Certificate
from .extensions import Extension, ct_poison
from .keys import SimPrivateKey, SimPublicKey, signature_algorithm_element
from .name import AttributeTypeAndValue, Name, RelativeDistinguishedName

_EPOCH = _dt.datetime(2024, 1, 1)

_SEQUENCE_TAG = Tag.universal(UniversalTag.SEQUENCE).encode()


class CertificateBuilder:
    """Build and sign certificates, compliant or otherwise."""

    def __init__(self):
        self._serial = 1
        self._subject = Name()
        self._issuer: Name | None = None
        self._not_before = _EPOCH
        self._not_after = _EPOCH + _dt.timedelta(days=90)
        self._extensions: list[Extension] = []
        self._public_key: SimPublicKey | None = None
        self._version = 2

    # -- identity -----------------------------------------------------------

    def serial(self, value: int) -> "CertificateBuilder":
        self._serial = value
        return self

    def subject_attr(
        self,
        oid: ObjectIdentifier,
        value: str,
        spec: StringSpec = UTF8_STRING,
        raw: bytes | None = None,
    ) -> "CertificateBuilder":
        """Append one Subject attribute as its own RDN.

        Passing ``raw`` injects arbitrary content octets under the
        declared string tag — the paper's invalid-encoding cases.
        Calling twice with the same OID creates duplicate attributes
        (the Invalid Structure cases).
        """
        self._subject.rdns.append(
            RelativeDistinguishedName(
                [AttributeTypeAndValue(oid=oid, value=value, spec=spec, raw=raw)]
            )
        )
        return self

    def subject_cn(self, value: str, spec: StringSpec = UTF8_STRING) -> "CertificateBuilder":
        return self.subject_attr(OID_COMMON_NAME, value, spec)

    def subject_name(self, name: Name) -> "CertificateBuilder":
        self._subject = name
        return self

    def issuer_name(self, name: Name) -> "CertificateBuilder":
        self._issuer = name
        return self

    # -- validity -------------------------------------------------------------

    def not_before(self, when: _dt.datetime) -> "CertificateBuilder":
        self._not_before = when
        return self

    def not_after(self, when: _dt.datetime) -> "CertificateBuilder":
        self._not_after = when
        return self

    def validity_days(self, days: int) -> "CertificateBuilder":
        self._not_after = self._not_before + _dt.timedelta(days=days)
        return self

    # -- extensions -------------------------------------------------------------

    def add_extension(self, extension: Extension) -> "CertificateBuilder":
        self._extensions.append(extension)
        return self

    def precertificate(self) -> "CertificateBuilder":
        """Mark as a CT precertificate by adding the poison extension."""
        return self.add_extension(ct_poison())

    # -- keys ---------------------------------------------------------------------

    def public_key(self, key: SimPublicKey) -> "CertificateBuilder":
        self._public_key = key
        return self

    # -- assembly ------------------------------------------------------------------

    def _tbs_element(self, issuer: Name, spki: Element) -> Element:
        children = [
            explicit(0, encode_integer(self._version)),
            encode_integer(self._serial),
            signature_algorithm_element(),
            issuer.encode(strict=False),
            encode_sequence(
                encode_time(self._not_before), encode_time(self._not_after)
            ),
            self._subject.encode(strict=False),
            spki,
        ]
        if self._extensions:
            children.append(
                explicit(3, encode_sequence(*[ext.encode() for ext in self._extensions]))
            )
        return encode_sequence(*children)

    def sign(
        self,
        key: SimPrivateKey,
        issuer: Name | None = None,
    ) -> Certificate:
        """Sign and return the assembled certificate.

        ``issuer`` defaults to the explicit issuer name, falling back to
        the subject (self-signed).
        """
        issuer_name = issuer or self._issuer or self._subject
        subject_key = self._public_key or key.public_key
        tbs_der = self._tbs_element(issuer_name, subject_key.to_spki()).encode()
        signature = key.sign(tbs_der)
        # The TBS is encoded once: its signed bytes are spliced into the
        # outer SEQUENCE as they are.
        body = (
            tbs_der
            + signature_algorithm_element().encode()
            + encode_bit_string(signature).encode()
        )
        der = _SEQUENCE_TAG + encode_length(len(body)) + body
        return Certificate.from_der(der, strict=False)
