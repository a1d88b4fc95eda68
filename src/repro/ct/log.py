"""A Certificate Transparency log simulator (RFC 6962 semantics).

Supports precertificate submission (poison-extension detection), SCT
issuance, inclusion/consistency proofs, and entry retrieval — the
substrate the monitor models index.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import hmac
from dataclasses import dataclass

from ..x509.certificate import Certificate
from .merkle import MerkleTree, verify_inclusion


@dataclass(frozen=True)
class SignedCertificateTimestamp:
    """A simulated SCT: log id, timestamp, and a MAC over the entry."""

    log_id: bytes
    timestamp: _dt.datetime
    signature: bytes

    def verify(self, log_key: bytes, entry_der: bytes) -> bool:
        expected = hmac.new(
            log_key, entry_der + self.timestamp.isoformat().encode(), hashlib.sha256
        ).digest()
        return hmac.compare_digest(expected, self.signature)


@dataclass
class LogEntry:
    """One accepted log entry."""

    index: int
    certificate: Certificate
    timestamp: _dt.datetime
    is_precertificate: bool


class CTLog:
    """An append-only log accepting certificates and precertificates."""

    def __init__(self, name: str = "sim-log", key: bytes = b"sim-log-key"):
        self.name = name
        self._key = key
        self.log_id = hashlib.sha256(name.encode() + key).digest()
        self._tree = MerkleTree()
        self._entries: list[LogEntry] = []

    # -- submission ------------------------------------------------------

    def submit(
        self, cert: Certificate, when: _dt.datetime | None = None
    ) -> SignedCertificateTimestamp:
        """Accept a (pre)certificate, append it, and return an SCT."""
        when = when or cert.not_before
        der = cert.to_der()
        index = self._tree.append(der)
        entry = LogEntry(
            index=index,
            certificate=cert,
            timestamp=when,
            is_precertificate=cert.is_precertificate,
        )
        self._entries.append(entry)
        signature = hmac.new(
            self._key, der + when.isoformat().encode(), hashlib.sha256
        ).digest()
        return SignedCertificateTimestamp(self.log_id, when, signature)

    # -- retrieval ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self._tree.size

    def root(self, size: int | None = None) -> bytes:
        return self._tree.root(size)

    def entries(self, include_precerts: bool = True) -> list[LogEntry]:
        if include_precerts:
            return list(self._entries)
        return [e for e in self._entries if not e.is_precertificate]

    def entry(self, index: int) -> LogEntry:
        return self._entries[index]

    # -- proofs ----------------------------------------------------------------

    def prove_inclusion(self, index: int, size: int | None = None) -> list[bytes]:
        return self._tree.inclusion_proof(index, size)

    def check_inclusion(self, index: int, proof: list[bytes]) -> bool:
        der = self._entries[index].certificate.to_der()
        return verify_inclusion(der, index, self.size, proof, self.root())

    def prove_consistency(
        self, old_size: int, new_size: int | None = None
    ) -> list[bytes]:
        return self._tree.consistency_proof(old_size, new_size)
