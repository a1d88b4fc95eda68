"""Durable monitor checkpoints: atomic JSON, structured failure taxonomy.

A killed tail monitor must resume *byte-identically*: the final
windowed summary after kill+resume has to equal the uninterrupted run's
output bit for bit.  That only works if the checkpoint is (a) written
atomically — a crash mid-write must never leave a half-checkpoint that
parses, and (b) validated structurally on load — a damaged checkpoint
must surface as a structured :class:`CheckpointError` that triggers a
clean cold start, never a half-resumed window.

Format: one JSON document ``{"format", "version", "crc32", "body"}``
where ``crc32`` covers the canonical (sorted-key, compact) encoding of
``body``.  The writer embeds exactly those canonical bytes as the body,
so it serializes the body once; the loader parses any JSON layout of
the document (including the fully re-serialized one older writers
produced) and re-encodes the parsed body to check the CRC.  The body carries the log position, the verified STH (tree
size + root hash), the serialized
:class:`~repro.engine.windows.WindowedSummary`, the segment-store
digest the window state was persisted with, and the alert cursor.
Writes go tmp → fsync → ``os.replace`` — the same durability discipline
as :func:`repro.corpusstore.writer.write_store`.

Failure taxonomy (mirrors :class:`repro.corpusstore.errors.CorpusStoreError`):

* ``truncated`` — the file does not end in the document's closing
  brace (a crash mid-write on a filesystem without atomic rename, or
  manual tampering);
* ``garbled`` — parses wrongly or not at all, wrong format marker,
  CRC mismatch, or a schema violation;
* ``bad_version`` — a future checkpoint layout;
* ``stale_digest`` — the checkpoint is internally valid but was taken
  against a different segment-store state than the one on disk (the
  caller compares digests and raises this; resuming would desynchronize
  the window from the persisted DER).
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from dataclasses import dataclass

CHECKPOINT_FORMAT = "repro-tail-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint could not be loaded safely.

    ``code`` is the stable taxonomy key (``truncated`` / ``garbled`` /
    ``bad_version`` / ``stale_digest``) callers branch on — the monitor
    cold-starts on any of them rather than half-resuming.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class MonitorCheckpoint:
    """One durable snapshot of a tail monitor's consumer state."""

    #: Log entries ``[0, position)`` are folded into ``window``.
    position: int
    #: The last verified signed tree head (consistency anchor).
    tree_size: int
    root_hash: str
    #: ``WindowedSummary.to_dict()`` payload (lossless).
    window: dict
    #: Segment-chain fingerprint the window state was persisted with
    #: (``None`` when the monitor runs without a store).
    store_digest: str | None = None
    #: Highest index window already evaluated for alerts (so resume
    #: never re-fires or skips an alert boundary).
    alerted_through: int = -1

    def body(self) -> dict:
        return {
            "position": self.position,
            "sth": {"tree_size": self.tree_size, "root_hash": self.root_hash},
            "window": self.window,
            "store_digest": self.store_digest,
            "alerted_through": self.alerted_through,
        }

    @classmethod
    def from_body(cls, body: dict) -> "MonitorCheckpoint":
        try:
            sth = body["sth"]
            checkpoint = cls(
                position=body["position"],
                tree_size=sth["tree_size"],
                root_hash=sth["root_hash"],
                window=body["window"],
                store_digest=body["store_digest"],
                alerted_through=body["alerted_through"],
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                "garbled", f"checkpoint body is missing fields: {exc}"
            ) from exc
        if not isinstance(checkpoint.position, int) or not isinstance(
            checkpoint.tree_size, int
        ):
            raise CheckpointError(
                "garbled", "checkpoint position/tree_size are not integers"
            )
        if not isinstance(checkpoint.window, dict):
            raise CheckpointError(
                "garbled", "checkpoint window state is not an object"
            )
        return checkpoint


def _canonical(body: dict) -> bytes:
    return json.dumps(
        body, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")


def write_checkpoint(path, checkpoint: MonitorCheckpoint) -> pathlib.Path:
    """Persist ``checkpoint`` atomically; returns the path written.

    tmp → flush → fsync → rename: a reader (including the resuming
    monitor itself) observes either the previous checkpoint or the new
    one, never a prefix.
    """
    path = pathlib.Path(path)
    body = _canonical(checkpoint.body())
    # The body is serialized once: its canonical bytes are both what the
    # CRC covers and what the document holds.  The loader re-encodes the
    # parsed body canonically, which gives back these bytes.
    document = b'{"body": %s, "crc32": %d, "format": "%s", "version": %d}' % (
        body,
        zlib.crc32(body) & 0xFFFFFFFF,
        CHECKPOINT_FORMAT.encode(),
        CHECKPOINT_VERSION,
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(document)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path) -> MonitorCheckpoint | None:
    """Load and validate a checkpoint; ``None`` when none exists yet.

    A missing file is the normal first-boot case and returns ``None``;
    every other failure is a structured :class:`CheckpointError` (see
    the module taxonomy) so the monitor can log the code and cold-start.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            "garbled", f"cannot read checkpoint {path}: {exc}"
        ) from exc
    stripped = text.rstrip()
    if not stripped.endswith("}"):
        # The document always ends in its closing brace; anything else
        # is a partial write (the taxonomy's ``truncated`` bucket).
        raise CheckpointError(
            "truncated",
            f"checkpoint {path} ends mid-document "
            f"({len(text)} bytes, no closing brace)",
        )
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            "garbled", f"checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(document, dict) or document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            "garbled", f"{path} is not a tail-monitor checkpoint"
        )
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            "bad_version",
            f"checkpoint version {version!r} is not supported "
            f"(reader speaks {CHECKPOINT_VERSION})",
        )
    body = document.get("body")
    if not isinstance(body, dict):
        raise CheckpointError("garbled", f"checkpoint {path} has no body")
    crc = zlib.crc32(_canonical(body)) & 0xFFFFFFFF
    if crc != document.get("crc32"):
        raise CheckpointError(
            "garbled",
            f"checkpoint {path} fails its CRC "
            f"(stored {document.get('crc32')!r}, computed {crc})",
        )
    return MonitorCheckpoint.from_body(body)
