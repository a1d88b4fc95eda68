"""OCSP (RFC 6960, compact subset) — responder and response codec.

Completes the revocation substrate: the paper's mitigation discussion
(Ballot SC063: OCSP optional, CRLs required; short-lived certificates
superseding both) needs a client that can *prefer* OCSP and fall back
to CRLs.  The DER layout is a faithful miniature: a signed ResponseData
carrying (serial, status, thisUpdate, nextUpdate).
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass

from ..asn1.der import (
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
from .keys import SimPrivateKey, SimPublicKey


class CertStatus(enum.IntEnum):
    """OCSP certificate status values (RFC 6960)."""
    GOOD = 0
    REVOKED = 1
    UNKNOWN = 2


@dataclass
class OCSPResponse:
    """A parsed single-certificate OCSP response."""

    serial: int
    status: CertStatus
    this_update: _dt.datetime
    next_update: _dt.datetime
    tbs_der: bytes = b""
    signature: bytes = b""

    def verify(self, responder_key: SimPublicKey) -> bool:
        return responder_key.verify(self.tbs_der, self.signature)

    def is_current(self, when: _dt.datetime) -> bool:
        return self.this_update <= when <= self.next_update

    @classmethod
    def from_der(cls, data: bytes) -> "OCSPResponse":
        raw = bytes(data)
        root = parse_node(raw, strict=False)
        if len(root[4]) != 2:
            raise DERDecodeError("OCSPResponse needs tbs/signature")
        tbs = root[4][0]
        signature, _unused = node_bit_string(raw, root[4][1])
        response = cls(
            serial=node_integer(raw, node_child(tbs, 0), strict=False),
            status=CertStatus(node_integer(raw, node_child(tbs, 1), strict=False)),
            this_update=node_time(raw, node_child(tbs, 2)),
            next_update=node_time(raw, node_child(tbs, 3)),
        )
        response.tbs_der = raw[tbs[1] : tbs[3]]
        response.signature = signature
        return response


class OCSPResponder:
    """A CA-operated responder answering by serial number."""

    def __init__(self, key: SimPrivateKey, lifetime_minutes: int = 60):
        self._key = key
        self._revoked: set[int] = set()
        self._known: set[int] = set()
        self.lifetime = _dt.timedelta(minutes=lifetime_minutes)

    def register(self, serial: int) -> None:
        self._known.add(serial)

    def revoke(self, serial: int) -> None:
        self._known.add(serial)
        self._revoked.add(serial)

    def respond(self, serial: int, when: _dt.datetime | None = None) -> bytes:
        """Produce a signed DER response for one serial."""
        when = when or _dt.datetime(2024, 6, 1)
        if serial in self._revoked:
            status = CertStatus.REVOKED
        elif serial in self._known:
            status = CertStatus.GOOD
        else:
            status = CertStatus.UNKNOWN
        tbs = encode_sequence(
            encode_integer(serial),
            encode_integer(int(status)),
            encode_time(when),
            encode_time(when + self.lifetime),
        )
        signature = self._key.sign(tbs.encode())
        return encode_sequence(tbs, encode_bit_string(signature)).encode()
