"""Minimal TLS 1.2 record/handshake framing (RFC 5246 subset).

Section 6.2's threat model has an in-path middlebox extracting server
certificates from *cleartext* TLS ≤1.2 handshakes.  This module
implements just enough of the wire format to build and parse the
records such a sniffer sees: the record layer, the handshake header,
and the Certificate message's 24-bit-length certificate chain.

TLS 1.3 encrypts the Certificate message; :func:`build_tls13_like_flight`
produces the opaque equivalent so the sniffer tests can show the
visibility difference the paper notes ("TLS 1.2 and earlier").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..x509.certificate import Certificate


class ContentType(enum.IntEnum):
    """TLS record-layer content types."""
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class HandshakeType(enum.IntEnum):
    """Handshake message types used by the server flight."""
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    CERTIFICATE = 11
    SERVER_HELLO_DONE = 14


TLS12_VERSION = b"\x03\x03"


class TLSFramingError(Exception):
    """The byte stream is not well-formed TLS framing."""


@dataclass(frozen=True)
class TLSRecord:
    content_type: ContentType
    payload: bytes

    def encode(self) -> bytes:
        if len(self.payload) > 0x4000:
            raise TLSFramingError("record payload exceeds 2^14")
        return (
            bytes([self.content_type])
            + TLS12_VERSION
            + len(self.payload).to_bytes(2, "big")
            + self.payload
        )


def iter_records(stream: bytes):
    """Yield TLSRecord objects from a raw byte stream."""
    offset = 0
    while offset < len(stream):
        if offset + 5 > len(stream):
            raise TLSFramingError("truncated record header")
        try:
            content_type = ContentType(stream[offset])
        except ValueError as exc:
            raise TLSFramingError(f"unknown content type {stream[offset]}") from exc
        length = int.from_bytes(stream[offset + 3 : offset + 5], "big")
        end = offset + 5 + length
        if end > len(stream):
            raise TLSFramingError("truncated record payload")
        yield TLSRecord(content_type, stream[offset + 5 : end])
        offset = end


# ---------------------------------------------------------------------------
# Handshake messages
# ---------------------------------------------------------------------------


def handshake_message(msg_type: HandshakeType, body: bytes) -> bytes:
    """Frame one handshake message (type + 24-bit length + body)."""
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


def iter_handshake_messages(payload: bytes):
    """Yield (type, body) pairs from concatenated handshake messages."""
    offset = 0
    while offset < len(payload):
        if offset + 4 > len(payload):
            raise TLSFramingError("truncated handshake header")
        msg_type = payload[offset]
        length = int.from_bytes(payload[offset + 1 : offset + 4], "big")
        end = offset + 4 + length
        if end > len(payload):
            raise TLSFramingError("truncated handshake body")
        yield msg_type, payload[offset + 4 : end]
        offset = end


def encode_certificate_message(chain: list[Certificate]) -> bytes:
    """The TLS 1.2 Certificate message: 24-bit length-prefixed DERs."""
    entries = b""
    for cert in chain:
        der = cert.to_der()
        entries += len(der).to_bytes(3, "big") + der
    body = len(entries).to_bytes(3, "big") + entries
    return handshake_message(HandshakeType.CERTIFICATE, body)


def decode_certificate_message(body: bytes) -> list[bytes]:
    """Extract the DER blobs from a Certificate message body."""
    if len(body) < 3:
        raise TLSFramingError("truncated certificate_list length")
    total = int.from_bytes(body[:3], "big")
    if 3 + total > len(body):
        raise TLSFramingError("certificate_list overruns message")
    ders: list[bytes] = []
    offset = 3
    end = 3 + total
    while offset < end:
        if offset + 3 > end:
            raise TLSFramingError("truncated certificate entry length")
        length = int.from_bytes(body[offset : offset + 3], "big")
        offset += 3
        if offset + length > end:
            raise TLSFramingError("certificate entry overruns list")
        ders.append(body[offset : offset + length])
        offset += length
    return ders


# ---------------------------------------------------------------------------
# Flights
# ---------------------------------------------------------------------------


def build_server_flight(chain: list[Certificate]) -> bytes:
    """ServerHello + Certificate + ServerHelloDone, as one record each."""
    server_hello = handshake_message(
        HandshakeType.SERVER_HELLO, TLS12_VERSION + bytes(32) + b"\x00" + b"\x00\x2f\x00"
    )
    records = [
        TLSRecord(ContentType.HANDSHAKE, server_hello),
        TLSRecord(ContentType.HANDSHAKE, encode_certificate_message(chain)),
        TLSRecord(
            ContentType.HANDSHAKE,
            handshake_message(HandshakeType.SERVER_HELLO_DONE, b""),
        ),
    ]
    return b"".join(record.encode() for record in records)


def build_tls13_like_flight(chain: list[Certificate]) -> bytes:
    """A TLS 1.3-style flight: the certificate travels encrypted.

    The Certificate message bytes are XOR-scrambled and carried as
    application_data, which is exactly what a passive observer sees.
    """
    server_hello = handshake_message(
        HandshakeType.SERVER_HELLO, TLS12_VERSION + bytes(32) + b"\x00" + b"\x13\x01\x00"
    )
    plaintext = encode_certificate_message(chain)
    scrambled = bytes(b ^ 0xA5 for b in plaintext)
    records = [TLSRecord(ContentType.HANDSHAKE, server_hello)]
    for start in range(0, len(scrambled), 0x3000):
        records.append(
            TLSRecord(ContentType.APPLICATION_DATA, scrambled[start : start + 0x3000])
        )
    return b"".join(record.encode() for record in records)


def sniff_certificates(stream: bytes) -> list[bytes]:
    """What a passive middlebox extracts: DERs from cleartext handshakes."""
    ders: list[bytes] = []
    for record in iter_records(stream):
        if record.content_type is not ContentType.HANDSHAKE:
            continue
        for msg_type, body in iter_handshake_messages(record.payload):
            if msg_type == HandshakeType.CERTIFICATE:
                ders.extend(decode_certificate_message(body))
    return ders
