"""Append-only segment chains over the substrate format.

The one-shot writer (:func:`repro.corpusstore.writer.write_store`) serializes
a whole corpus into a single file — the right shape for batch runs, and
exactly the wrong one for a tail monitor that receives a few hundred
certificates per poll: rewriting an ever-growing store per batch is
O(total²) bytes over a monitor's lifetime.

A *segment chain* keeps the substrate format and its integrity taxonomy
unchanged and adds append-only semantics one level up: each batch lands
as one complete substrate file (``segment-000000.rcs``,
``segment-000001.rcs``, ...), written with the existing atomic
tmp+rename discipline, and the reader chains segments into one logical
store with cumulative offsets.  A crash mid-append leaves at worst an
ignored ``*.tmp`` file — every visible segment is a fully
CRC-covered substrate, so the chain is always either readable or a
structured :class:`~repro.corpusstore.errors.CorpusStoreError`.

``store_digest`` fingerprints the chain from segment headers alone
(name, record count, payload CRC-32) — O(segments), not O(bytes) — and
is what the monitor checkpoint embeds to detect a store that diverged
from the window state it was persisted with.  A :class:`SegmentWriter`
keeps the same fingerprint as a running hash, so a checkpoint costs
O(1) in the chain length.
"""

from __future__ import annotations

import hashlib
import pathlib
import re

from .errors import CorpusStoreError
from .reader import CorpusStore
from .writer import write_records

#: Segment file pattern: zero-padded so lexical order is chain order.
SEGMENT_PATTERN = re.compile(r"^segment-(\d{6})\.rcs$")


def segment_name(number: int) -> str:
    """The canonical file name of segment ``number``."""
    return f"segment-{number:06d}.rcs"


def list_segments(directory) -> list[pathlib.Path]:
    """The chain's segment paths in order; gaps are structural errors.

    A missing middle segment means records silently vanish from the
    chain — the same class of failure as a truncated single-file store,
    and it reports the same way (``code="segment_gap"``).
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    numbered: list[tuple[int, pathlib.Path]] = []
    for path in directory.iterdir():
        match = SEGMENT_PATTERN.match(path.name)
        if match is not None:
            numbered.append((int(match.group(1)), path))
    numbered.sort()
    for position, (number, path) in enumerate(numbered):
        if number != position:
            raise CorpusStoreError(
                "segment_gap",
                f"segment chain in {directory} jumps to {path.name} at "
                f"position {position} (expected {segment_name(position)})",
            )
    return [path for _, path in numbered]


def _chain_hash(paths):
    """The running chain hash over the segments at ``paths``, in order."""
    chain = hashlib.sha256(b"repro-segment-chain-v1")
    for path in paths:
        with CorpusStore(path) as store:
            _chain_extend(chain, path.name, len(store), store.crc32)
    return chain


def _chain_extend(chain, name: str, count: int, crc: int) -> None:
    """Bind one more segment's header facts into ``chain``."""
    chain.update(name.encode())
    chain.update(count.to_bytes(8, "big"))
    chain.update(crc.to_bytes(4, "big"))


def store_digest(directory) -> str:
    """Cheap chain fingerprint: SHA-256 over per-segment header facts.

    Binds the segment names, record counts, and payload CRC-32s —
    enough to detect appended, dropped, reordered, or rewritten
    segments without re-reading any DER.  An empty (or absent) chain
    digests to a well-defined constant.
    """
    return _chain_hash(list_segments(directory)).hexdigest()


class SegmentWriter:
    """Append-only writer: one atomic substrate file per batch.

    The chain fingerprint is kept as a running hash: read from disk at
    construction, extended by each :meth:`append` from the header facts
    it just wrote, restarted by :meth:`reset`.  :meth:`digest` therefore
    opens no segment and equals :func:`store_digest` as long as this
    writer is the chain's only writer.
    """

    def __init__(self, directory):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        segments = list_segments(self.directory)
        self._next = len(segments)
        self._chain = _chain_hash(segments)

    @property
    def segments(self) -> int:
        """Segments visible in the chain so far."""
        return self._next

    def append(self, source) -> pathlib.Path:
        """Persist one batch as the chain's next segment, atomically.

        ``source`` is anything :func:`write_store` accepts (records,
        ``(der, issued_at)`` pairs, ...).  The tmp+rename inside
        ``write_store`` makes the append all-or-nothing: a reader (or a
        resumed monitor) either sees the complete segment or none of it.
        """
        path = self.directory / segment_name(self._next)
        count, crc = write_records(source, path)
        _chain_extend(self._chain, path.name, count, crc)
        self._next += 1
        return path

    def digest(self) -> str:
        """The chain fingerprint (see :func:`store_digest`), O(1)."""
        return self._chain.copy().hexdigest()

    def reset(self) -> None:
        """Drop every segment (cold start): the chain restarts at 0."""
        if self.directory.is_dir():
            for path in sorted(self.directory.iterdir()):
                if (
                    SEGMENT_PATTERN.match(path.name)
                    or path.name.endswith(".rcs.tmp")
                ):
                    path.unlink()
        self._next = 0
        self._chain = _chain_hash(())


class SegmentedCorpusStore:
    """Read a segment chain as one logical record sequence.

    The public record surface mirrors :class:`CorpusStore` — ``len``,
    ``der_bytes``, ``der_view``, ``issued_at``, ``iter_shard`` — with
    global indices mapped onto per-segment offsets, so replay tooling
    can treat a monitor's persisted tail exactly like a batch substrate.
    """

    def __init__(self, directory, *, verify: bool = False):
        self.directory = pathlib.Path(directory)
        self._stores: list[CorpusStore] = []
        self._starts: list[int] = []
        total = 0
        try:
            for path in list_segments(self.directory):
                store = CorpusStore(path, verify=verify)
                self._stores.append(store)
                self._starts.append(total)
                total += len(store)
        except CorpusStoreError:
            self.close()
            raise
        self._total = total

    def __len__(self) -> int:
        return self._total

    @property
    def segments(self) -> int:
        return len(self._stores)

    def digest(self) -> str:
        """The chain fingerprint of the segments this reader opened."""
        chain = _chain_hash(())
        for store in self._stores:
            name = pathlib.Path(store.path).name
            _chain_extend(chain, name, len(store), store.crc32)
        return chain.hexdigest()

    def _locate(self, i: int) -> tuple[CorpusStore, int]:
        if not 0 <= i < self._total:
            raise CorpusStoreError(
                "out_of_range",
                f"record {i} out of range (chain holds {self._total})",
            )
        import bisect

        segment = bisect.bisect_right(self._starts, i) - 1
        return self._stores[segment], i - self._starts[segment]

    def der_view(self, i: int):
        store, local = self._locate(i)
        return store.der_view(local)

    def der_bytes(self, i: int) -> bytes:
        store, local = self._locate(i)
        return store.der_bytes(local)

    def issued_at(self, i: int):
        store, local = self._locate(i)
        return store.issued_at(local)

    def iter_shard(self, start: int, stop: int):
        """Yield ``(der_bytes, issued_at)`` across segment boundaries."""
        if not 0 <= start <= stop <= self._total:
            raise CorpusStoreError(
                "out_of_range",
                f"shard [{start}, {stop}) out of range "
                f"(chain holds {self._total})",
            )
        for segment, store in enumerate(self._stores):
            seg_start = self._starts[segment]
            seg_stop = seg_start + len(store)
            if seg_stop <= start:
                continue
            if seg_start >= stop:
                break
            yield from store.iter_shard(
                max(start, seg_start) - seg_start,
                min(stop, seg_stop) - seg_start,
            )

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        stores, self._stores = self._stores, []
        for store in stores:
            store.close()

    def __enter__(self) -> "SegmentedCorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
