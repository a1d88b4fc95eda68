"""Zero-copy substrate reader.

:class:`CorpusStore` maps the file once (``mmap``, read-only) and hands
out shard views as buffer slices: ``der_view(i)`` is a ``memoryview``
into the mapping (no copy at all), ``der_bytes(i)`` materializes one
certificate's bytes (one small copy, in the process that will parse
them — never pickled, never shipped over a pipe).  Worker processes
therefore share the corpus through the page cache: a
:class:`~repro.lint.parallel.ShardTask` carries ``(path, start, stop)``
and each worker maps the same physical pages.

Structural validation runs on every open — magic, version, region
bounds against the real file size — so truncation is a structured
:class:`~repro.corpusstore.errors.CorpusStoreError`, not a garbage
summary.  ``verify=True`` additionally checks the payload CRC-32 (one
sequential pass; skip it on hot paths that just wrote the file).
"""

from __future__ import annotations

import mmap
import os
import warnings

from .errors import CorpusStoreError
from .format import (
    HEADER,
    INDEX_ENTRY,
    ISSUED_ENTRY,
    MAGIC,
    VERSION,
    decode_issued_at,
)


class CorpusStore:
    """Read-only, memory-mapped view over one substrate file."""

    def __init__(self, path, *, verify: bool = False):
        self.path = str(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise CorpusStoreError(
                "unreadable", f"cannot open {self.path}: {exc}"
            ) from exc
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < HEADER.size:
                raise CorpusStoreError(
                    "truncated",
                    f"{self.path} is {size} bytes; the substrate header "
                    f"alone is {HEADER.size}",
                )
            self._mm = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except CorpusStoreError:
            self._file.close()
            raise
        except (OSError, ValueError) as exc:
            self._file.close()
            raise CorpusStoreError(
                "unreadable", f"cannot map {self.path}: {exc}"
            ) from exc
        self._view = memoryview(self._mm)
        try:
            self._parse_header(size)
            if verify:
                self._verify_crc()
        except CorpusStoreError:
            self.close()
            raise

    # -- header / integrity -------------------------------------------

    def _parse_header(self, size: int) -> None:
        (
            magic,
            version,
            _flags,
            count,
            index_off,
            issued_off,
            der_off,
            der_size,
            crc,
            _reserved,
        ) = HEADER.unpack_from(self._view, 0)
        if magic != MAGIC:
            raise CorpusStoreError(
                "bad_magic", f"{self.path} is not a corpus substrate file"
            )
        if version != VERSION:
            raise CorpusStoreError(
                "bad_version",
                f"substrate version {version} is not supported "
                f"(reader speaks {VERSION})",
            )
        index_end = index_off + count * INDEX_ENTRY.size
        issued_end = issued_off + count * ISSUED_ENTRY.size
        der_end = der_off + der_size
        if not (
            HEADER.size <= index_off <= index_end <= issued_off
            and issued_off <= issued_end <= der_off
        ):
            raise CorpusStoreError(
                "corrupt_header",
                f"region offsets are inconsistent in {self.path}",
            )
        if der_end > size:
            raise CorpusStoreError(
                "truncated",
                f"{self.path} is {size} bytes but the header promises "
                f"{der_end} (count={count}, der_size={der_size})",
            )
        self._count = count
        self._index_off = index_off
        self._issued_off = issued_off
        self._der_off = der_off
        self._der_size = der_size
        self._crc = crc

    def _verify_crc(self) -> None:
        import zlib

        crc = zlib.crc32(
            self._view[self._index_off : self._der_off + self._der_size]
        )
        if (crc & 0xFFFFFFFF) != self._crc:
            raise CorpusStoreError(
                "corrupt_data",
                f"payload checksum mismatch in {self.path} "
                f"(stored {self._crc:#010x}, computed {crc:#010x})",
            )

    # -- record access ------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def crc32(self) -> int:
        """The header's payload CRC-32 (used by segment-chain digests)."""
        return self._crc

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the mapping."""
        return getattr(self, "_view", None) is None

    def _require_open(self) -> memoryview:
        """The live mapping view, or a structured ``closed`` error.

        Without the guard a post-close access surfaces as a
        ``TypeError`` on the ``None`` view — indistinguishable from a
        reader bug.  A use-after-close is a *caller lifecycle* bug and
        reports as one.
        """
        view = getattr(self, "_view", None)
        if view is None:
            raise CorpusStoreError(
                "closed",
                f"{self.path} is closed; records are unreachable after "
                "close() (reopen the store to read again)",
            )
        return view

    def _entry(self, i: int) -> tuple[int, int]:
        view = self._require_open()
        if not 0 <= i < self._count:
            raise CorpusStoreError(
                "out_of_range",
                f"record {i} out of range (substrate holds {self._count})",
            )
        offset, length = INDEX_ENTRY.unpack_from(
            view, self._index_off + i * INDEX_ENTRY.size
        )
        if offset + length > self._der_size:
            raise CorpusStoreError(
                "corrupt_index",
                f"index entry {i} points {offset}+{length} bytes into a "
                f"{self._der_size}-byte DER region",
            )
        return offset, length

    def der_view(self, i: int) -> memoryview:
        """Record ``i``'s DER as a zero-copy slice of the mapping."""
        offset, length = self._entry(i)
        start = self._der_off + offset
        return self._require_open()[start : start + length]

    def der_bytes(self, i: int) -> bytes:
        """Record ``i``'s DER materialized as ``bytes`` (one copy)."""
        return bytes(self.der_view(i))

    def issued_at(self, i: int):
        """Record ``i``'s issuance timestamp (or ``None``)."""
        view = self._require_open()
        if not 0 <= i < self._count:
            raise CorpusStoreError(
                "out_of_range",
                f"record {i} out of range (substrate holds {self._count})",
            )
        (value,) = ISSUED_ENTRY.unpack_from(
            view, self._issued_off + i * ISSUED_ENTRY.size
        )
        return decode_issued_at(value)

    def iter_shard(self, start: int, stop: int):
        """Yield ``(der_bytes, issued_at)`` for records in ``[start, stop)``.

        This is the worker-side access path: the index and issued-at
        columns for the shard are two contiguous column slices, and each
        DER materializes exactly once, in the process that parses it.
        """
        view = self._require_open()
        if not 0 <= start <= stop <= self._count:
            raise CorpusStoreError(
                "out_of_range",
                f"shard [{start}, {stop}) out of range "
                f"(substrate holds {self._count})",
            )
        entries = INDEX_ENTRY.iter_unpack(
            view[
                self._index_off
                + start * INDEX_ENTRY.size : self._index_off
                + stop * INDEX_ENTRY.size
            ]
        )
        issued = ISSUED_ENTRY.iter_unpack(
            view[
                self._issued_off
                + start * ISSUED_ENTRY.size : self._issued_off
                + stop * ISSUED_ENTRY.size
            ]
        )
        for i, ((offset, length), (raw_issued,)) in enumerate(
            zip(entries, issued)
        ):
            if offset + length > self._der_size:
                raise CorpusStoreError(
                    "corrupt_index",
                    f"index entry {start + i} points {offset}+{length} "
                    f"bytes into a {self._der_size}-byte DER region",
                )
            begin = self._der_off + offset
            yield (
                bytes(view[begin : begin + length]),
                decode_issued_at(raw_issued),
            )

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Release the mapping; idempotent.

        If a caller still holds a ``der_view`` slice, the mapping
        cannot be unmapped yet — it is left for the garbage collector
        to reclaim once the last exported buffer is released, rather
        than making ``close()`` raise on a perfectly normal shutdown
        ordering.
        """
        view, self._view = getattr(self, "_view", None), None
        if view is not None:
            view.release()
        mm = getattr(self, "_mm", None)
        if mm is not None:
            self._mm = None
            try:
                mm.close()
            except BufferError:
                pass
        handle, self._file = getattr(self, "_file", None), None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self, _warn=warnings.warn):
        """GC safety net: close a store its owner never closed, and say
        so with a ``ResourceWarning``, as an unclosed ``io`` file does.

        ``_warn`` is bound at definition: a store collected at
        interpreter exit may outlive the ``warnings`` module global.
        """
        if self.closed:
            return
        self.close()
        _warn(f"unclosed corpus store {self.path!r}", ResourceWarning, source=self)
