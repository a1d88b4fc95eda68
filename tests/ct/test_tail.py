"""The simulated CT tail: clock, STH signatures, the get-entries API,
and the monitor's refusal codes when a log misbehaves."""

import copy
import datetime as dt

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.ct.tail import (
    MonitorConfig,
    SignedTreeHead,
    SimClock,
    TailLog,
    TailMonitor,
    TailVerificationError,
    drive,
    DEFAULT_LOG_KEY,
    SIM_EPOCH,
)
from repro.engine.pipeline import run_corpus
from repro.lint.serialization import summary_to_json


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=17, scale=0.00001).generate()


class TestSimClock:
    def test_starts_at_the_analysis_epoch(self):
        assert SimClock().now() == SIM_EPOCH

    def test_advance_is_deterministic(self):
        first, second = SimClock(), SimClock()
        for _ in range(5):
            first.advance()
            second.advance()
        assert first.now() == second.now()
        assert first.now() == SIM_EPOCH + dt.timedelta(seconds=5)

    def test_explicit_delta_overrides_the_tick(self):
        clock = SimClock()
        clock.advance(dt.timedelta(hours=2))
        assert clock.now() == SIM_EPOCH + dt.timedelta(hours=2)


class TestSignedTreeHead:
    def test_sign_then_verify(self):
        sth = SignedTreeHead.sign(b"key", 7, SIM_EPOCH, b"\x11" * 32)
        assert sth.verify(b"key")

    def test_wrong_key_fails(self):
        sth = SignedTreeHead.sign(b"key", 7, SIM_EPOCH, b"\x11" * 32)
        assert not sth.verify(b"other-key")

    def test_tampered_root_fails(self):
        sth = SignedTreeHead.sign(b"key", 7, SIM_EPOCH, b"\x11" * 32)
        forged = SignedTreeHead(
            sth.tree_size, sth.timestamp, b"\x22" * 32, sth.signature
        )
        assert not forged.verify(b"key")


class TestTailLog:
    def test_advance_publishes_in_corpus_order(self, corpus):
        log = TailLog(corpus)
        assert log.size == 0
        assert log.backlog == len(corpus.records)
        published = log.advance(10)
        assert published == 10
        assert log.size == 10
        entries = log.get_entries(0, 10)
        for index, entry in enumerate(entries):
            assert entry.index == index
            assert entry.der == corpus.records[index].certificate.to_der()
            assert entry.issued_at == corpus.records[index].issued_at

    def test_advance_clamps_to_the_corpus(self, corpus):
        log = TailLog(corpus)
        total = len(corpus.records)
        assert log.advance(total + 500) == total
        assert log.backlog == 0
        assert log.advance(1) == 0

    def test_get_entries_clamps_to_published_size(self, corpus):
        log = TailLog(corpus)
        log.advance(5)
        assert len(log.get_entries(0, 50)) == 5

    def test_fresh_log_reproduces_the_same_roots(self, corpus):
        """The resume anchor: a new process's log re-derives the exact
        tree, so an old checkpointed root stays verifiable."""
        first, second = TailLog(corpus), TailLog(corpus)
        first.advance(40)
        second.advance(40)
        assert first.sth().root_hash == second.sth().root_hash
        assert first.sth().verify(DEFAULT_LOG_KEY)


class TestMonitorVerification:
    def _verified_monitor(self, corpus):
        monitor = TailMonitor(TailLog(corpus), MonitorConfig(batch_size=32))
        drive(monitor, batches=1)
        return monitor

    def test_bad_signature_is_refused(self, corpus):
        monitor = self._verified_monitor(corpus)
        sth = monitor.log.sth()
        forged = SignedTreeHead.sign(
            b"attacker-key", sth.tree_size, sth.timestamp, sth.root_hash
        )
        with pytest.raises(TailVerificationError) as excinfo:
            monitor._verify_sth(forged)
        assert excinfo.value.code == "bad_sth_signature"

    def test_shrinking_log_is_refused(self, corpus):
        monitor = self._verified_monitor(corpus)
        shrunk = SignedTreeHead.sign(
            monitor.log.key, 1, monitor.log.clock.now(), b"\x00" * 32
        )
        with pytest.raises(TailVerificationError) as excinfo:
            monitor._verify_sth(shrunk)
        assert excinfo.value.code == "shrinking_log"

    def test_equivocating_sth_is_refused(self, corpus):
        monitor = self._verified_monitor(corpus)
        size, _root = monitor._verified_sth
        twin = SignedTreeHead.sign(
            monitor.log.key, size, monitor.log.clock.now(), b"\x00" * 32
        )
        with pytest.raises(TailVerificationError) as excinfo:
            monitor._verify_sth(twin)
        assert excinfo.value.code == "equivocating_sth"

    def test_unprovable_growth_is_refused(self, corpus):
        monitor = self._verified_monitor(corpus)
        size, _root = monitor._verified_sth
        bogus = SignedTreeHead.sign(
            monitor.log.key, size + 8, monitor.log.clock.now(), b"\x00" * 32
        )
        monitor.log.advance(8)
        with pytest.raises(TailVerificationError) as excinfo:
            monitor._verify_sth(bogus)
        assert excinfo.value.code == "inconsistent_sth"

    def test_tampered_entry_fails_inclusion(self, corpus):
        monitor = self._verified_monitor(corpus)
        monitor.log.advance(8)
        sth = monitor.log.sth()
        monitor._verify_sth(sth)
        entries = monitor.log.get_entries(0, 8)
        from repro.ct.tail import TailEntry

        tampered = TailEntry(
            index=entries[3].index,
            der=entries[3].der + b"\x00",
            issued_at=entries[3].issued_at,
        )
        with pytest.raises(TailVerificationError) as excinfo:
            monitor._check_inclusion(tampered, sth)
        assert excinfo.value.code == "bad_inclusion"


class TestPolling:
    def test_idle_poll_returns_none(self, corpus):
        monitor = TailMonitor(TailLog(corpus), MonitorConfig(batch_size=32))
        assert monitor.poll() is None
        monitor.log.advance(32)
        assert monitor.poll() is not None
        assert monitor.poll() is None

    def test_drive_consumes_the_whole_backlog(self, corpus):
        monitor = TailMonitor(TailLog(corpus), MonitorConfig(batch_size=50))
        outcomes = drive(monitor)
        total = len(corpus.records)
        assert monitor.position == total
        assert sum(outcome.count for outcome in outcomes) == total
        assert [outcome.start for outcome in outcomes] == list(
            range(0, total, 50)
        )
        assert monitor.window.entries == total

    def test_drive_respects_the_batch_budget(self, corpus):
        monitor = TailMonitor(TailLog(corpus), MonitorConfig(batch_size=32))
        outcomes = drive(monitor, batches=3)
        assert len(outcomes) == 3
        assert monitor.position == 96


class _Garbage:
    """A log leaf whose bytes are not a certificate."""

    is_precertificate = False

    def to_der(self) -> bytes:
        return b"\x30\x03\x02\x01\x00"


def _with_garbage_leaf(corpus, index):
    poisoned = copy.copy(corpus)
    poisoned.records = list(corpus.records)
    victim = copy.copy(poisoned.records[index])
    victim.certificate = _Garbage()
    poisoned.records[index] = victim
    return poisoned


class TestUnparseableLeaf:
    GARBAGE_AT = 40

    def _monitor(self, corpus, directory):
        return TailMonitor(
            TailLog(_with_garbage_leaf(corpus, self.GARBAGE_AT)),
            MonitorConfig(
                batch_size=32,
                index_window=32,
                checkpoint_path=str(directory / "monitor.ckpt"),
                store_dir=str(directory / "segments"),
            ),
        )

    def test_poll_reports_the_leaf_and_moves_past_it(self, corpus, tmp_path):
        monitor = self._monitor(corpus, tmp_path)
        outcomes = drive(monitor)
        failures = [failure for outcome in outcomes for failure in outcome.failures]
        assert [index for index, _ in failures] == [self.GARBAGE_AT]
        assert failures[0][1].startswith("input is not a parseable certificate: ")
        total = len(corpus.records)
        assert monitor.position == total
        assert monitor.window.entries == total - 1
        good = [r for i, r in enumerate(corpus.records) if i != self.GARBAGE_AT]
        assert summary_to_json(monitor.window.total.summary) == summary_to_json(
            run_corpus(good, jobs=1).summary
        )
        window = monitor.window.by_index[self.GARBAGE_AT // 32]
        assert window.total == 31
        assert (window.first_index, window.last_index) == (32, 63)

    def test_kill_and_resume_past_the_leaf(self, corpus, tmp_path):
        reference = self._monitor(corpus, tmp_path / "ref")
        drive(reference)
        killed = self._monitor(corpus, tmp_path / "split")
        drive(killed, batches=2)
        assert killed.position == 64
        resumed = self._monitor(corpus, tmp_path / "split")
        assert resumed.start(resume=True)
        drive(resumed)
        assert resumed.window.to_json() == reference.window.to_json()
