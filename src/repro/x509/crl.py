"""Certificate Revocation Lists (RFC 5280 Section 5) — simulation grade.

The CRL substrate backs the paper's Section 5.2 revocation-subversion
threat model: a client that fetches CRLs from the URL its parser
extracted from CRLDistributionPoints can be pointed at the wrong host
by a parser that rewrites control characters.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from ..asn1.der import (
    Element,
    Node,
    encode_bit_string,
    encode_integer,
    encode_sequence,
    encode_time,
    node_bit_string,
    node_child,
    node_integer,
    node_time,
    parse_node,
)
from ..asn1.errors import DERDecodeError
from ..asn1.tags import TagClass
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
    def from_node(cls, data: bytes, node: Node) -> "RevokedCertificate":
        return cls(
            serial=node_integer(data, node_child(node, 0), strict=False),
            revocation_date=node_time(data, node_child(node, 1)),
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
        root = parse_node(raw, strict=False)
        if len(root[4]) != 3:
            raise DERDecodeError("CertificateList needs tbs/alg/signature")
        tbs = root[4][0]
        signature_bits, _unused = node_bit_string(raw, root[4][2])
        index = 0
        # Optional version INTEGER.
        first = node_child(tbs, 0)
        if first[0].number == 2 and not first[0].constructed:
            index = 1
        issuer = Name.from_node(raw, node_child(tbs, index + 1), strict=False)
        this_update = node_time(raw, node_child(tbs, index + 2))
        next_update = node_time(raw, node_child(tbs, index + 3))
        revoked: list[RevokedCertificate] = []
        for child in tbs[4][index + 4 :]:
            if child[0].cls is TagClass.UNIVERSAL and child[0].number == 16:
                revoked.extend(RevokedCertificate.from_node(raw, entry) for entry in child[4])
        crl = cls(
            issuer=issuer,
            this_update=this_update,
            next_update=next_update,
            revoked=revoked,
        )
        crl.tbs_der = raw[tbs[1] : tbs[3]]
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
