"""A simulated CT log tail and its checkpointed monitor consumer.

The paper's corpus is a fixed CT-derived snapshot; production monitors
consume certificates *as they arrive*, polling ``get-sth`` and
``get-entries`` and verifying that each new signed tree head is
consistent with the last one (RFC 6962 §5.3–§5.4).  This module closes
that gap inside the simulation:

* :class:`TailLog` — wraps the existing :class:`~repro.ct.log.CTLog`
  Merkle model and feeds it from a deterministic
  :class:`~repro.ct.corpus.CorpusGenerator` corpus on an injectable
  :class:`SimClock` (no wall clock anywhere — runs are replayable by
  construction).  ``advance()`` publishes the next records, ``sth()``
  signs the current tree head, ``get_entries`` serves half-open batch
  ranges like the HTTP API.
* :class:`TailMonitor` — the incremental consumer: verifies STH
  signatures and consistency between polls, lints each batch through
  :meth:`repro.engine.Engine.run_increment` into a
  :class:`~repro.engine.windows.WindowedSummary`, persists arriving DER
  to an append-only segment chain, checkpoints atomically after every
  batch (:mod:`repro.ct.checkpoint`), and raises threshold alerts when
  a completed window's noncompliance mix shifts against its trailing
  baseline.

Kill the process at any point; a new monitor constructed over the same
configuration resumes from the checkpoint and the final windowed
summary is byte-identical to an uninterrupted run — the equivalence the
tests and the CI monitor-smoke job prove.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import hmac
from dataclasses import dataclass, field

from .checkpoint import (
    CheckpointError,
    MonitorCheckpoint,
    load_checkpoint,
    write_checkpoint,
)
from .corpus import CorpusGenerator
from .log import CTLog
from .merkle import verify_consistency, verify_inclusion

#: Where simulated time starts: the paper's analysis date.  Purely a
#: label — tree roots never depend on timestamps — but fixed so STH
#: documents are reproducible byte for byte.
SIM_EPOCH = _dt.datetime(2025, 4, 1)

DEFAULT_LOG_KEY = b"sim-tail-log-key"


class TailVerificationError(Exception):
    """The log served something a monitor must refuse to consume.

    ``code`` taxonomy: ``bad_sth_signature`` / ``shrinking_log`` /
    ``equivocating_sth`` / ``inconsistent_sth`` / ``bad_inclusion``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class SimClock:
    """Deterministic, injectable time source.

    The determinism discipline of the repo (held by the serial-vs-pool
    byte-identity tests for lints, and by the kill/resume byte-identity
    proofs here) rules out ``datetime.now()``: every timestamp in the
    tail simulation advances this clock explicitly.
    """

    def __init__(
        self,
        start: _dt.datetime = SIM_EPOCH,
        tick: _dt.timedelta = _dt.timedelta(seconds=1),
    ):
        self._now = start
        self.tick = tick

    def now(self) -> _dt.datetime:
        return self._now

    def advance(self, delta: _dt.timedelta | None = None) -> _dt.datetime:
        self._now += self.tick if delta is None else delta
        return self._now


@dataclass(frozen=True)
class SignedTreeHead:
    """A simulated STH: tree size, root hash, timestamp, MAC signature.

    Real logs sign with the log's private key; the simulation MACs with
    the shared log key, mirroring how
    :class:`~repro.ct.log.SignedCertificateTimestamp` is modelled.
    """

    tree_size: int
    timestamp: _dt.datetime
    root_hash: bytes
    signature: bytes

    @staticmethod
    def _payload(
        tree_size: int, timestamp: _dt.datetime, root_hash: bytes
    ) -> bytes:
        return (
            tree_size.to_bytes(8, "big")
            + root_hash
            + timestamp.isoformat().encode()
        )

    @classmethod
    def sign(
        cls,
        key: bytes,
        tree_size: int,
        timestamp: _dt.datetime,
        root_hash: bytes,
    ) -> "SignedTreeHead":
        signature = hmac.new(
            key, cls._payload(tree_size, timestamp, root_hash), hashlib.sha256
        ).digest()
        return cls(tree_size, timestamp, root_hash, signature)

    def verify(self, key: bytes) -> bool:
        expected = hmac.new(
            key,
            self._payload(self.tree_size, self.timestamp, self.root_hash),
            hashlib.sha256,
        ).digest()
        return hmac.compare_digest(expected, self.signature)


@dataclass(frozen=True)
class TailEntry:
    """One ``get-entries`` item: log index, DER, issuance timestamp."""

    index: int
    der: bytes
    issued_at: _dt.datetime | None


class TailLog:
    """A CT log being written concurrently with our reads — simulated.

    Wraps :class:`CTLog` (Merkle tree, SCTs, proofs) and a generated
    corpus acting as the submission stream: each :meth:`advance` call
    publishes the next ``count`` corpus records into the tree at
    clock-stamped submission times.  Entries surface in corpus record
    order, so a monitor that tails entries ``[0, M)`` has seen exactly
    ``corpus.records[:M]`` — the anchor for every equivalence proof.
    """

    def __init__(
        self,
        corpus=None,
        *,
        seed: int = 2025,
        scale: float = 1 / 1000,
        clock: SimClock | None = None,
        name: str = "sim-tail-log",
        key: bytes = DEFAULT_LOG_KEY,
    ):
        if corpus is None:
            corpus = CorpusGenerator(seed=seed, scale=scale).generate()
        self.corpus = corpus
        self.clock = clock if clock is not None else SimClock()
        self.key = key
        self._log = CTLog(name=name, key=key)
        self._issued: list[_dt.datetime | None] = []
        self._next = 0

    # -- the submission side (the "rest of the ecosystem") ------------

    @property
    def size(self) -> int:
        """Published entries so far (the current tree size)."""
        return self._log.size

    @property
    def backlog(self) -> int:
        """Corpus records not yet published."""
        return len(self.corpus.records) - self._next

    def advance(self, count: int = 256) -> int:
        """Publish up to ``count`` more corpus records; returns how many."""
        published = 0
        records = self.corpus.records
        while published < count and self._next < len(records):
            record = records[self._next]
            self.clock.advance()
            self._log.submit(record.certificate, when=self.clock.now())
            self._issued.append(record.issued_at)
            self._next += 1
            published += 1
        return published

    # -- the monitoring API (get-sth / get-entries / proofs) ----------

    def sth(self) -> SignedTreeHead:
        """Sign the current tree head at the current simulated time."""
        size = self._log.size
        return SignedTreeHead.sign(
            self.key, size, self.clock.now(), self._log.root(size)
        )

    def get_entries(self, start: int, stop: int) -> list[TailEntry]:
        """Entries ``[start, stop)``, clamped to the published size."""
        stop = min(stop, self._log.size)
        entries: list[TailEntry] = []
        for index in range(start, stop):
            entry = self._log.entry(index)
            entries.append(
                TailEntry(
                    index=index,
                    der=entry.certificate.to_der(),
                    issued_at=self._issued[index],
                )
            )
        return entries

    def prove_consistency(
        self, old_size: int, new_size: int | None = None
    ) -> list[bytes]:
        return self._log.prove_consistency(old_size, new_size)

    def prove_inclusion(self, index: int, size: int | None = None) -> list[bytes]:
        return self._log.prove_inclusion(index, size)


# ---------------------------------------------------------------------------
# The consumer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorConfig:
    """Everything that shapes a monitor run (and must match on resume)."""

    batch_size: int = 256
    jobs: int | None = 1
    index_window: int = 1024
    epoch: str = "year"
    checkpoint_path: str | None = None
    store_dir: str | None = None
    alert_threshold: float = 0.15
    baseline_depth: int = 4
    alert_min_total: int = 16
    respect_effective_dates: bool = True


@dataclass
class BatchOutcome:
    """What one successful poll produced.

    ``failures`` lists each entry of the batch that does not parse as a
    certificate as ``(log_index, message)``; the poll moves past it.
    """

    start: int
    stop: int
    summary: object
    alerts: list = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return self.stop - self.start


class TailMonitor:
    """The incremental consumer over a :class:`TailLog`.

    Per poll: fetch and verify the STH (signature, monotonic size,
    consistency proof against the last verified head), pull the next
    batch of entries, spot-check the batch's last entry against the STH
    with an inclusion proof, lint the batch through
    :meth:`Engine.run_increment` into the windowed summary (an entry
    that does not parse is reported in :attr:`BatchOutcome.failures`,
    not folded), persist the batch's DER as one segment, checkpoint
    atomically, then evaluate alert thresholds over newly completed
    index windows.

    ``on_alert`` (a callable taking one
    :class:`~repro.engine.windows.Alert`) is the hook the CLI wires to
    stdout; library callers can fan alerts anywhere.
    """

    def __init__(
        self,
        log: TailLog,
        config: MonitorConfig | None = None,
        *,
        engine=None,
        pool=None,
        on_alert=None,
    ):
        from ..engine.pipeline import Engine
        from ..engine.windows import AlertPolicy, WindowConfig, WindowedSummary

        self.log = log
        self.config = config if config is not None else MonitorConfig()
        self.engine = engine if engine is not None else Engine()
        self.pool = pool
        self.on_alert = on_alert
        self.policy = AlertPolicy(
            threshold=self.config.alert_threshold,
            depth=self.config.baseline_depth,
            min_total=self.config.alert_min_total,
        )
        self._window_config = WindowConfig(
            index_window=self.config.index_window, epoch=self.config.epoch
        )
        self.window = WindowedSummary(self._window_config)
        self.position = 0
        self._verified_sth: tuple[int, bytes] | None = None
        self._alerted_through = -1
        self._writer = None
        if self.config.store_dir is not None:
            from ..corpusstore import SegmentWriter

            self._writer = SegmentWriter(self.config.store_dir)
        #: Checkpoint failure code recovered from on the last cold start
        #: (``None`` when the checkpoint loaded cleanly or was absent).
        self.recovered: str | None = None

    # -- resume -------------------------------------------------------

    def resume(self) -> bool:
        """Restore state from the checkpoint; ``True`` if restored.

        Raises :class:`CheckpointError` on a damaged checkpoint or a
        segment store that diverged from it (``stale_digest``) — state
        is untouched in that case, so the caller can cold-start without
        ever exposing a half-resumed window.
        """
        from ..engine.windows import WindowedSummary

        if self.config.checkpoint_path is None:
            return False
        checkpoint = load_checkpoint(self.config.checkpoint_path)
        if checkpoint is None:
            return False
        if self._writer is not None:
            from ..corpusstore import store_digest

            # The chain on disk, not the writer's running hash: a segment
            # rewritten or dropped while the monitor was down must show.
            digest = store_digest(self.config.store_dir)
            if checkpoint.store_digest != digest:
                raise CheckpointError(
                    "stale_digest",
                    "segment store does not match the checkpoint "
                    f"(checkpointed {checkpoint.store_digest!r}, "
                    f"on disk {digest!r})",
                )
        window = WindowedSummary.from_dict(checkpoint.window)
        if window.config != self._window_config:
            raise CheckpointError(
                "garbled",
                f"checkpoint window shape {window.config} does not match "
                f"the configured {self._window_config}",
            )
        self.window = window
        self.position = checkpoint.position
        self._verified_sth = (
            checkpoint.tree_size,
            bytes.fromhex(checkpoint.root_hash),
        )
        self._alerted_through = checkpoint.alerted_through
        return True

    def cold_start(self) -> None:
        """Reset to a pristine consumer (fresh window, empty store)."""
        from ..engine.windows import WindowedSummary

        self.window = WindowedSummary(self._window_config)
        self.position = 0
        self._verified_sth = None
        self._alerted_through = -1
        if self._writer is not None:
            self._writer.reset()

    def start(self, resume: bool = True) -> bool:
        """Bring the monitor up; ``True`` if it resumed from checkpoint.

        ``resume=True`` recovers gracefully: a structured checkpoint
        failure records its taxonomy code in :attr:`recovered` and
        falls back to a clean cold start (the never-half-resumed
        guarantee).  ``resume=False`` always cold-starts.
        """
        self.recovered = None
        if not resume:
            self.cold_start()
            return False
        try:
            return self.resume()
        except CheckpointError as exc:
            self.recovered = exc.code
            self.cold_start()
            return False

    # -- the poll loop ------------------------------------------------

    def _verify_sth(self, sth: SignedTreeHead) -> None:
        if not sth.verify(self.log.key):
            raise TailVerificationError(
                "bad_sth_signature",
                f"STH for tree size {sth.tree_size} fails verification",
            )
        if self._verified_sth is not None:
            old_size, old_root = self._verified_sth
            if sth.tree_size < old_size:
                raise TailVerificationError(
                    "shrinking_log",
                    f"log shrank from {old_size} to {sth.tree_size}",
                )
            if sth.tree_size == old_size:
                if sth.root_hash != old_root:
                    raise TailVerificationError(
                        "equivocating_sth",
                        f"two roots for tree size {old_size}",
                    )
            elif old_size > 0:
                # RFC 6962 consistency proofs are defined for non-empty
                # old trees; every tree is consistent with the empty one.
                proof = self.log.prove_consistency(old_size, sth.tree_size)
                if not verify_consistency(
                    old_size, sth.tree_size, old_root, sth.root_hash, proof
                ):
                    raise TailVerificationError(
                        "inconsistent_sth",
                        f"no consistency between sizes {old_size} and "
                        f"{sth.tree_size}",
                    )
        self._verified_sth = (sth.tree_size, sth.root_hash)

    def _check_inclusion(
        self, entry: TailEntry, sth: SignedTreeHead
    ) -> None:
        proof = self.log.prove_inclusion(entry.index, sth.tree_size)
        if not verify_inclusion(
            entry.der, entry.index, sth.tree_size, proof, sth.root_hash
        ):
            raise TailVerificationError(
                "bad_inclusion",
                f"entry {entry.index} is not included in the verified "
                f"tree of size {sth.tree_size}",
            )

    def _checkpoint(self) -> None:
        if self.config.checkpoint_path is None:
            return
        size, root = self._verified_sth
        write_checkpoint(
            self.config.checkpoint_path,
            MonitorCheckpoint(
                position=self.position,
                tree_size=size,
                root_hash=root.hex(),
                window=self.window.to_dict(),
                store_digest=(
                    self._writer.digest() if self._writer is not None else None
                ),
                alerted_through=self._alerted_through,
            ),
        )

    def _evaluate_alerts(self) -> list:
        alerts = []
        for window_id in self.window.completed_index_windows(self.position):
            if window_id <= self._alerted_through:
                continue
            alerts.extend(self.policy.evaluate(self.window, window_id))
            self._alerted_through = window_id
        return alerts

    def poll(self) -> BatchOutcome | None:
        """One get-sth / get-entries / lint / persist / checkpoint turn.

        Returns ``None`` when the verified head has nothing new past
        the current position (the idle poll); raises
        :class:`TailVerificationError` when the log misbehaves.
        """
        sth = self.log.sth()
        self._verify_sth(sth)
        if self.position >= sth.tree_size:
            return None
        start = self.position
        stop = min(start + self.config.batch_size, sth.tree_size)
        entries = self.log.get_entries(start, stop)
        self._check_inclusion(entries[-1], sth)
        outcome = self.engine.run_increment(
            entries,
            base_index=start,
            jobs=self.config.jobs,
            pool=self.pool,
            respect_effective_dates=self.config.respect_effective_dates,
            window=self.window,
        )
        if self._writer is not None:
            self._writer.append(
                [(entry.der, entry.issued_at) for entry in entries]
            )
        self.position = stop
        alerts = self._evaluate_alerts()
        self._checkpoint()
        if self.on_alert is not None:
            for alert in alerts:
                self.on_alert(alert)
        return BatchOutcome(
            start=start,
            stop=stop,
            summary=outcome.summary,
            alerts=alerts,
            failures=outcome.failures,
        )


def drive(monitor: TailMonitor, batches: int | None = None) -> list[BatchOutcome]:
    """Feed the log and poll the monitor for up to ``batches`` turns.

    The harness the CLI, tests, and benchmark share: publishes another
    batch of submissions whenever the monitor has caught up, stops when
    the corpus backlog is exhausted (or the batch budget is spent).
    After a resume this naturally fast-forwards — the feeder republishes
    the deterministic stream and the monitor consumes from its
    checkpointed position.
    """
    outcomes: list[BatchOutcome] = []
    config = monitor.config
    while batches is None or len(outcomes) < batches:
        while monitor.log.size <= monitor.position:
            if monitor.log.advance(config.batch_size) == 0:
                return outcomes
        outcome = monitor.poll()
        if outcome is None:
            return outcomes
        outcomes.append(outcome)
    return outcomes
