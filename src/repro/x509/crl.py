"""Certificate Revocation Lists (RFC 5280 Section 5) — simulation grade.

The CRL substrate backs the paper's Section 5.2 revocation-subversion
threat model: a client that fetches CRLs from the URL its parser
extracted from CRLDistributionPoints can be pointed at the wrong host
by a parser that rewrites control characters.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from ..asn1 import (
    DERDecodeError,
    Element,
    TagClass,
    decode_bit_string,
    decode_integer,
    decode_time,
    encode_bit_string,
    encode_integer,
    encode_sequence,
    encode_time,
    parse as parse_der,
)
from .keys import SimPrivateKey, SimPublicKey, signature_algorithm_element
from .name import Name


@dataclass(frozen=True)
class RevokedCertificate:
    """One revokedCertificates entry."""

    serial: int
    revocation_date: _dt.datetime

    def encode(self) -> Element:
        return encode_sequence(
            encode_integer(self.serial), encode_time(self.revocation_date)
        )

    @classmethod
    def parse(cls, element: Element) -> "RevokedCertificate":
        return cls(
            serial=decode_integer(element.child(0), strict=False),
            revocation_date=decode_time(element.child(1)),
        )


@dataclass
class CertificateRevocationList:
    """A parsed (or built) CRL."""

    issuer: Name
    this_update: _dt.datetime
    next_update: _dt.datetime
    revoked: list[RevokedCertificate] = field(default_factory=list)
    tbs_der: bytes = b""
    signature: bytes = b""

    # -- codec -----------------------------------------------------------

    def _tbs_element(self) -> Element:
        children = [
            encode_integer(1),  # v2
            signature_algorithm_element(),
            self.issuer.encode(strict=False),
            encode_time(self.this_update),
            encode_time(self.next_update),
        ]
        if self.revoked:
            children.append(encode_sequence(*[entry.encode() for entry in self.revoked]))
        return encode_sequence(*children)

    def sign(self, key: SimPrivateKey) -> bytes:
        """Sign and return the full DER CertificateList."""
        tbs = self._tbs_element()
        self.tbs_der = tbs.encode()
        self.signature = key.sign(self.tbs_der)
        return encode_sequence(
            tbs, signature_algorithm_element(), encode_bit_string(self.signature)
        ).encode()

    @classmethod
    def from_der(cls, data: bytes) -> "CertificateRevocationList":
        raw = bytes(data)
        root = parse_der(raw, strict=False)
        if len(root.children) != 3:
            raise DERDecodeError("CertificateList needs tbs/alg/signature")
        tbs = root.child(0)
        signature_bits, _unused = decode_bit_string(root.child(2))
        index = 0
        # Optional version INTEGER.
        if tbs.child(0).tag.number == 2 and not tbs.child(0).tag.constructed:
            index = 1
        issuer = Name.parse(tbs.child(index + 1), strict=False)
        this_update = decode_time(tbs.child(index + 2))
        next_update = decode_time(tbs.child(index + 3))
        revoked: list[RevokedCertificate] = []
        for child in tbs.children[index + 4 :]:
            if child.tag.cls is TagClass.UNIVERSAL and child.tag.number == 16:
                revoked.extend(RevokedCertificate.parse(entry) for entry in child.children)
        crl = cls(
            issuer=issuer,
            this_update=this_update,
            next_update=next_update,
            revoked=revoked,
        )
        crl.tbs_der = raw[tbs.offset : tbs.end]
        crl.signature = signature_bits
        return crl

    # -- queries -----------------------------------------------------------

    def is_revoked(self, serial: int) -> bool:
        return any(entry.serial == serial for entry in self.revoked)

    def verify(self, issuer_key: SimPublicKey) -> bool:
        return issuer_key.verify(self.tbs_der, self.signature)

    def is_current(self, when: _dt.datetime) -> bool:
        return self.this_update <= when <= self.next_update


def build_crl(
    issuer: Name,
    key: SimPrivateKey,
    revoked_serials: list[int],
    this_update: _dt.datetime | None = None,
    lifetime_days: int = 7,
) -> tuple[CertificateRevocationList, bytes]:
    """Convenience: build, sign, and return (model, DER)."""
    this_update = this_update or _dt.datetime(2024, 6, 1)
    crl = CertificateRevocationList(
        issuer=issuer,
        this_update=this_update,
        next_update=this_update + _dt.timedelta(days=lifetime_days),
        revoked=[
            RevokedCertificate(serial, this_update) for serial in revoked_serials
        ],
    )
    der = crl.sign(key)
    return crl, der
