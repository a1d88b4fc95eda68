"""On-disk layout of the memory-mapped corpus substrate.

One substrate file holds an entire corpus in three contiguous regions
behind a fixed 64-byte header, columnar so each access pattern touches
only the bytes it needs:

::

    offset 0    header (64 bytes, little-endian, see HEADER below)
    INDEX_OFF   index column: count × (u64 der_offset, u32 der_len)
    ISSUED_OFF  issued-at column: count × i64 epoch-microseconds
    DER_OFF     DER region: every certificate's DER, back to back

* The **index column** is fixed-width, so record ``i``'s entry lives at
  ``index_off + i * 12`` — random access without scanning, and a shard
  ``(start, stop)`` is one contiguous slice of the column.
* The **issued-at column** stores naive-UTC microseconds since the Unix
  epoch (:data:`ISSUED_NONE` marks a missing timestamp), exactly the
  value :func:`repro.lint.runner.run_lints` receives today, so the
  substrate round trip cannot perturb effective-date decisions.
* The **DER region** is the raw concatenation of ``to_der()`` bytes;
  ``der_offset`` in each index entry is relative to ``der_off`` so the
  region can be mapped and sliced without pointer fixups.

``crc32`` covers the three regions in file order (index, issued, DER).
Readers verify it on demand (:class:`~repro.corpusstore.reader.
CorpusStore` ``verify=True``); structural header/bounds checks are
always on, which is what turns truncation into a structured error
instead of garbage summaries.
"""

from __future__ import annotations

import datetime as _dt
import struct

#: File magic: ASCII, versioned separately so the magic never changes.
MAGIC = b"RPROCS01"

#: Format version; bump on any layout change.
VERSION = 1

#: Header: magic, version, flags, count, index_off, issued_off,
#: der_off, der_size, crc32, reserved — 64 bytes exactly.
HEADER = struct.Struct("<8sIIQQQQQII")
assert HEADER.size == 64

#: One index entry: DER offset (relative to der_off) + DER length.
INDEX_ENTRY = struct.Struct("<QI")

#: One issued-at entry: signed microseconds since the Unix epoch.
ISSUED_ENTRY = struct.Struct("<q")

#: Sentinel for "no issuance timestamp" (records may carry ``None``).
ISSUED_NONE = -(2**63)

#: Epoch reference for the issued-at column (naive UTC).
EPOCH = _dt.datetime(1970, 1, 1)

#: Per-certificate DER size cap implied by the u32 length field.
MAX_DER_LEN = 2**32 - 1


def encode_issued_at(issued_at: _dt.datetime | None) -> int:
    """Encode an issuance timestamp as column microseconds.

    Timezone-aware datetimes are normalized to naive UTC first — the
    same normalization the lint runner applies to effective dates — so
    a round trip through the substrate is behaviour-preserving.
    """
    if issued_at is None:
        return ISSUED_NONE
    if issued_at.tzinfo is not None:
        issued_at = issued_at.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    delta = issued_at - EPOCH
    return (delta.days * 86400 + delta.seconds) * 1_000_000 + delta.microseconds


def decode_issued_at(value: int) -> _dt.datetime | None:
    """Inverse of :func:`encode_issued_at`."""
    if value == ISSUED_NONE:
        return None
    return EPOCH + _dt.timedelta(microseconds=value)
