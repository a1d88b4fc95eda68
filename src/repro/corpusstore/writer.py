"""Substrate writer: serialize any corpus shape into one columnar file.

Accepts the three record shapes the repo already passes around:

* a :class:`repro.ct.corpus.Corpus` (anything with ``.records``);
* a list of records (anything with ``.certificate`` and optionally
  ``.issued_at`` — the parallel pipeline's duck type);
* a list of ``(der_bytes, issued_at)`` pairs (what tests and external
  ingest produce when there is no live certificate object).

The writer streams: index and issued-at columns are packed into
buffers, the DER region is appended certificate by certificate, and the
running CRC-32 covers the payload in file order.  The header is written
last (over a zero placeholder), so a crash mid-write leaves a file that
readers reject structurally instead of half-trusting.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib

from .errors import CorpusStoreError
from .format import (
    HEADER,
    INDEX_ENTRY,
    ISSUED_ENTRY,
    MAGIC,
    MAX_DER_LEN,
    VERSION,
    encode_issued_at,
)


def _iter_pairs(source):
    """Yield ``(der, issued_at)`` from any accepted corpus shape."""
    records = getattr(source, "records", source)
    for record in records:
        certificate = getattr(record, "certificate", None)
        if certificate is not None:
            yield certificate.to_der(), getattr(record, "issued_at", None)
        else:
            der, issued_at = record
            yield bytes(der), issued_at


def write_store(source, path) -> pathlib.Path:
    """Serialize ``source`` to a substrate file at ``path``.

    Returns the path written.  The write is atomic-by-rename within the
    destination directory (``path + ".tmp"`` then ``os.replace``), so a
    concurrent reader never observes a half-written substrate.
    """
    path = pathlib.Path(path)
    write_records(source, path)
    return path


def write_records(source, path) -> tuple[int, int]:
    """:func:`write_store`, returning the header's record count and
    payload CRC-32 instead of the path."""
    path = pathlib.Path(path)
    index = bytearray()
    issued = bytearray()
    ders: list[bytes] = []
    der_size = 0
    for der, issued_at in _iter_pairs(source):
        if len(der) > MAX_DER_LEN:
            raise CorpusStoreError(
                "corrupt_index",
                f"certificate DER of {len(der)} bytes exceeds the "
                f"u32 length field",
            )
        index += INDEX_ENTRY.pack(der_size, len(der))
        issued += ISSUED_ENTRY.pack(encode_issued_at(issued_at))
        ders.append(der)
        der_size += len(der)
    count = len(ders)

    index_off = HEADER.size
    issued_off = index_off + len(index)
    der_off = issued_off + len(issued)

    crc = zlib.crc32(bytes(index))
    crc = zlib.crc32(bytes(issued), crc)

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(b"\x00" * HEADER.size)
        handle.write(index)
        handle.write(issued)
        for der in ders:
            crc = zlib.crc32(der, crc)
            handle.write(der)
        handle.seek(0)
        handle.write(
            HEADER.pack(
                MAGIC,
                VERSION,
                0,
                count,
                index_off,
                issued_off,
                der_off,
                der_size,
                crc & 0xFFFFFFFF,
                0,
            )
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return count, crc & 0xFFFFFFFF
