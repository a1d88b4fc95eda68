"""Substrate writer: serialize any corpus shape into one columnar file.

Accepts every batch shape the engine does, normalized by
:func:`repro.engine.ingest.batch_pairs`: a
:class:`repro.ct.corpus.Corpus` (anything with ``.records``), corpus
records (``.certificate``/``.issued_at``), CT tail entries
(``.der``/``.issued_at``) or ``(der_bytes, issued_at)`` pairs.

The writer packs the index and issued-at columns with one ``struct``
call each, joins them and the DER region into one payload, takes its
CRC-32 in one call and writes header and payload to a temporary file
that is renamed into place only after ``fsync``: a crash mid-write
leaves at worst the ``.tmp`` file, and a truncated file is one readers
reject structurally instead of half-trusting.  :func:`write_spill`
skips the fsync and the rename for a file its writer deletes when the
run ends.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib

from ..engine.ingest import batch_pairs
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
    header, payload, count, crc = _pack(source)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return count, crc


def write_spill(source, path) -> None:
    """Write ``source`` to a throwaway substrate at ``path``.

    For a file its writer deletes when the run ends, such as the
    temporary substrate a pooled corpus run dispatches from: the bytes
    go straight to ``path`` with no fsync and no rename, since a crash
    loses the run that would read them anyway.
    """
    header, payload, _count, _crc = _pack(source)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload)


def _pack(source) -> tuple[bytes, bytes, int, int]:
    """``(header, payload, record count, payload CRC-32)`` of ``source``."""
    # Flat (der_offset, der_len) pairs and issued-at values, each column
    # packed with one struct call.
    index: list[int] = []
    issued: list[int] = []
    ders: list[bytes] = []
    der_size = 0
    for der, issued_at in batch_pairs(source):
        length = len(der)
        if length > MAX_DER_LEN:
            raise CorpusStoreError(
                "corrupt_index",
                f"certificate DER of {length} bytes exceeds the "
                f"u32 length field",
            )
        index += (der_size, length)
        issued.append(encode_issued_at(issued_at))
        ders.append(der)
        der_size += length
    count = len(ders)

    index_col = struct.pack("<" + INDEX_ENTRY.format[1:] * count, *index)
    issued_col = struct.pack("<%d%s" % (count, ISSUED_ENTRY.format[1:]), *issued)
    index_off = HEADER.size
    issued_off = index_off + len(index_col)
    der_off = issued_off + len(issued_col)
    payload = b"".join([index_col, issued_col, *ders])
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = HEADER.pack(
        MAGIC,
        VERSION,
        0,
        count,
        index_off,
        issued_off,
        der_off,
        der_size,
        crc,
        0,
    )
    return header, payload, count, crc
