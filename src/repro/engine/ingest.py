"""Ingest stage: unified certificate-byte sniffing and input sources.

Before the engine existed the repo sniffed PEM-vs-DER twice with two
different error taxonomies: the CLI (``x509.pem.load_certificate_bytes``
— PEM or raw bytes, no base64) and the service
(``service.server.decode_certificate_body`` — PEM, raw DER, or base64
of either, structured 400 codes).  This module is now the single
implementation: both entry points accept the same shapes and fail with
the same ``empty_body`` / ``bad_pem`` / ``bad_body`` taxonomy, carried
by :class:`IngestError` (transport-neutral — the service maps it onto
``HttpError`` 400s, the CLI onto exit status 2).
"""

from __future__ import annotations

import base64
import binascii
import datetime as _dt
from dataclasses import dataclass

from ..x509.pem import PEMError, decode_pem


class IngestError(Exception):
    """Input bytes could not be resolved to certificate DER.

    ``code`` is the stable machine taxonomy shared by every entry
    point: ``empty_body`` (nothing there), ``bad_pem`` (PEM armor that
    does not decode), ``bad_body`` (neither PEM, DER, nor base64),
    ``unreadable`` (a source that could not be read at all).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _decode_pem_block(text: bytes) -> bytes:
    try:
        return decode_pem(
            text.decode("ascii", errors="replace"), label="CERTIFICATE"
        )
    except PEMError as exc:
        raise IngestError("bad_pem", f"invalid PEM body: {exc}") from exc


def sniff_certificate_bytes(data: bytes) -> bytes:
    """Accept PEM, raw DER, or base64 of either; return DER bytes.

    The decision procedure (identical for the CLI and the service):

    1. all-whitespace input → ``empty_body``;
    2. a leading DER SEQUENCE tag (``0x30``) → raw DER, passed through
       untouched (every certificate's outermost TLV starts with it);
    3. PEM armor (after stripping) → the first ``CERTIFICATE`` block,
       ``bad_pem`` if the armor is broken;
    4. otherwise base64 (whitespace-tolerant) of DER or of PEM armor;
       anything else → ``bad_body``.
    """
    if not data.strip():
        raise IngestError("empty_body", "request body is empty")
    if data[:1] == b"\x30":  # DER SEQUENCE tag: raw bytes, pass untouched
        return data
    data = data.strip()
    if data.startswith(b"-----BEGIN"):
        return _decode_pem_block(data)
    try:
        decoded = base64.b64decode(b"".join(data.split()), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise IngestError(
            "bad_body", "body is neither PEM, DER, nor base64 of either"
        ) from exc
    if decoded.startswith(b"-----BEGIN"):
        return _decode_pem_block(decoded)
    return decoded


@dataclass(frozen=True)
class SourceItem:
    """One ingested input: where it came from plus its raw bytes."""

    origin: str
    data: bytes


def read_path(path: str, stdin=None) -> SourceItem:
    """Read one CLI input source (a file path, or ``-`` for stdin).

    Failures raise :class:`IngestError` with code ``unreadable`` so the
    CLI keeps its historical ``cannot read <path>: <why>`` message and
    per-file exit status 2.
    """
    if path == "-":
        if stdin is None:
            import sys

            stdin = sys.stdin
        return SourceItem(origin="-", data=stdin.buffer.read())
    try:
        with open(path, "rb") as handle:
            return SourceItem(origin=path, data=handle.read())
    except OSError as exc:
        raise IngestError("unreadable", f"cannot read {path}: {exc}") from exc


def batch_pairs(batch) -> list[tuple[bytes, _dt.datetime | None]]:
    """Normalize any batch shape to ``(der, issued_at)`` pairs.

    The one normalizer of the engine and the substrate writer.  Accepts
    raw ``(der, issued_at)`` tuples (passed through as they are), corpus
    records (``.certificate``/``.issued_at``), CT tail entries
    (``.der``/``.issued_at``), other two-item sequences, or anything
    with ``.records`` wrapping one of those.
    """
    pairs: list[tuple[bytes, _dt.datetime | None]] = []
    for entry in getattr(batch, "records", batch):
        if type(entry) is not tuple:
            if getattr(entry, "certificate", None) is not None:
                issued_at = getattr(entry, "issued_at", None)
                pairs.append((entry.certificate.to_der(), issued_at))
                continue
            if getattr(entry, "der", None) is not None:
                entry = (entry.der, getattr(entry, "issued_at", None))
        der, issued_at = entry
        pairs.append((bytes(der), issued_at))
    return pairs
