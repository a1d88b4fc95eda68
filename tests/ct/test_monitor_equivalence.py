"""The incremental engine's headline guarantee, end to end:

* a monitor that tails the whole log produces a grand total
  byte-identical to the one-shot batch run over the same records;
* killing the monitor mid-stream and resuming from its checkpoint
  yields the same final windowed summary, byte for byte;
* both hold at ``jobs=1`` and ``jobs=4`` (real pool dispatch).
"""

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.ct.tail import MonitorConfig, TailLog, TailMonitor, drive
from repro.engine.pipeline import run_corpus
from repro.lint.serialization import summary_to_json

#: jobs=4 over 128-entry batches genuinely dispatches to the pool
#: (two 64-record shards); smaller batches would silently clamp to the
#: serial executor and prove nothing about parallel folding.
BATCH = 128


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=31, scale=0.00002).generate()


@pytest.fixture(scope="module")
def one_shot(corpus):
    return summary_to_json(run_corpus(corpus, jobs=1).summary)


def _config(tmp_path, jobs):
    return MonitorConfig(
        batch_size=BATCH,
        jobs=jobs,
        index_window=256,
        checkpoint_path=str(tmp_path / "monitor.ckpt"),
        store_dir=str(tmp_path / "segments"),
    )


def _uninterrupted(corpus, tmp_path, jobs):
    monitor = TailMonitor(TailLog(corpus), _config(tmp_path, jobs))
    outcomes = drive(monitor)
    return monitor, outcomes


@pytest.mark.parametrize("jobs", [1, 4])
class TestEquivalence:
    def test_tail_total_matches_the_one_shot_batch_run(
        self, corpus, one_shot, tmp_path, jobs
    ):
        monitor, _ = _uninterrupted(corpus, tmp_path, jobs)
        assert summary_to_json(monitor.window.total.summary) == one_shot

    def test_kill_resume_is_byte_identical_to_uninterrupted(
        self, corpus, tmp_path, jobs
    ):
        reference, ref_outcomes = _uninterrupted(
            corpus, tmp_path / "reference", jobs
        )

        # "Process one": consume three batches, then die without any
        # shutdown courtesy — the checkpoint after batch 3 is all that
        # survives.
        killed = TailMonitor(
            TailLog(corpus), _config(tmp_path / "killed", jobs)
        )
        first_outcomes = drive(killed, batches=3)
        assert killed.position == 3 * BATCH

        # "Process two": a fresh log (the deterministic stream
        # re-derives the same tree) and a fresh monitor that resumes.
        resumed = TailMonitor(
            TailLog(corpus), _config(tmp_path / "killed", jobs)
        )
        assert resumed.start(resume=True) is True
        assert resumed.recovered is None
        assert resumed.position == 3 * BATCH
        second_outcomes = drive(resumed)

        assert resumed.position == reference.position
        assert resumed.window.to_json() == reference.window.to_json()
        # Alerts fire exactly once across the kill: the two runs' alert
        # streams concatenate to the uninterrupted stream.
        split_alerts = [
            alert
            for outcome in first_outcomes + second_outcomes
            for alert in outcome.alerts
        ]
        ref_alerts = [
            alert for outcome in ref_outcomes for alert in outcome.alerts
        ]
        assert split_alerts == ref_alerts

    def test_resumed_total_matches_the_one_shot_batch_run(
        self, corpus, one_shot, tmp_path, jobs
    ):
        killed = TailMonitor(TailLog(corpus), _config(tmp_path, jobs))
        drive(killed, batches=2)
        resumed = TailMonitor(TailLog(corpus), _config(tmp_path, jobs))
        assert resumed.start(resume=True) is True
        drive(resumed)
        assert summary_to_json(resumed.window.total.summary) == one_shot


class TestJobsInvariance:
    def test_jobs_4_window_is_byte_identical_to_jobs_1(
        self, corpus, tmp_path
    ):
        serial, _ = _uninterrupted(corpus, tmp_path / "serial", 1)
        pooled, _ = _uninterrupted(corpus, tmp_path / "pooled", 4)
        assert pooled.window.to_json() == serial.window.to_json()


class TestPersistedTail:
    def test_segment_chain_replays_the_exact_entry_stream(
        self, corpus, tmp_path
    ):
        from repro.corpusstore.segments import SegmentedCorpusStore

        monitor, _ = _uninterrupted(corpus, tmp_path, 1)
        with SegmentedCorpusStore(tmp_path / "segments") as store:
            assert len(store) == len(corpus.records)
            for i in (0, 1, BATCH - 1, BATCH, len(corpus.records) - 1):
                record = corpus.records[i]
                assert store.der_bytes(i) == record.certificate.to_der()
                assert store.issued_at(i) == record.issued_at
            assert store.digest() == monitor._writer.digest()
