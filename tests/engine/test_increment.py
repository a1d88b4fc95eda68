"""``Engine.run_increment``: the pull-based core of the incremental
engine.  Folding the corpus in bounded batches — in any decomposition,
at any job count — must reproduce the one-shot batch summary byte for
byte, because both sides run the identical merge algebra."""

import datetime as dt

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import Engine, increment_pairs, run_corpus, run_increment
from repro.engine.stats import EngineStats
from repro.engine.windows import WindowConfig, WindowedSummary
from repro.lint.serialization import summary_to_json


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=11, scale=0.00001).generate()


@pytest.fixture(scope="module")
def one_shot(corpus):
    return summary_to_json(run_corpus(corpus, jobs=1).summary)


def _fold_in_batches(corpus, batch_size, jobs):
    engine = Engine()
    window = WindowedSummary(WindowConfig(index_window=100))
    records = corpus.records
    for start in range(0, len(records), batch_size):
        batch = records[start : start + batch_size]
        engine.run_increment(batch, base_index=start, jobs=jobs, window=window)
    return window


class TestIncrementEquivalence:
    @pytest.mark.parametrize("batch_size", [37, 64, 1000])
    def test_any_batch_decomposition_matches_one_shot(
        self, corpus, one_shot, batch_size
    ):
        window = _fold_in_batches(corpus, batch_size, jobs=1)
        assert window.entries == len(corpus.records)
        assert summary_to_json(window.total.summary) == one_shot

    def test_parallel_increments_match_one_shot(self, corpus, one_shot):
        window = _fold_in_batches(corpus, 128, jobs=4)
        assert summary_to_json(window.total.summary) == one_shot

    def test_window_state_round_trips_byte_identically(self, corpus):
        window = _fold_in_batches(corpus, 64, jobs=1)
        clone = WindowedSummary.from_dict(window.to_dict())
        assert clone.to_json() == window.to_json()


class TestBatchShapes:
    def test_increment_pairs_accepts_corpus_records(self, corpus):
        pairs = increment_pairs(corpus.records[:3])
        for record, (der, issued_at) in zip(corpus.records, pairs):
            assert der == record.certificate.to_der()
            assert issued_at == record.issued_at

    def test_increment_pairs_accepts_a_records_wrapper(self, corpus):
        assert increment_pairs(corpus)[:3] == increment_pairs(
            corpus.records[:3]
        )

    def test_increment_pairs_accepts_der_entries(self, corpus):
        class Entry:
            def __init__(self, der, issued_at):
                self.der = der
                self.issued_at = issued_at

        record = corpus.records[0]
        der = record.certificate.to_der()
        pairs = increment_pairs([Entry(der, record.issued_at)])
        assert pairs == [(der, record.issued_at)]

    def test_increment_pairs_accepts_raw_pairs(self):
        when = dt.datetime(2021, 1, 1)
        assert increment_pairs([(b"\x30\x00", when)]) == [(b"\x30\x00", when)]

    def test_all_shapes_lint_identically(self, corpus):
        records = corpus.records[:40]
        reference = run_increment(records, jobs=1)
        raw = run_increment(increment_pairs(records), jobs=1)
        assert summary_to_json(raw.summary) == summary_to_json(
            reference.summary
        )


class TestOutcomeContract:
    def test_empty_batch_is_a_zero_summary(self):
        outcome = run_increment([], jobs=1)
        assert outcome.summary.total == 0
        assert outcome.reports is None

    def test_reports_stay_private_to_the_fold(self, corpus):
        window = WindowedSummary(WindowConfig(index_window=100))
        outcome = run_increment(
            corpus.records[:20], jobs=1, window=window
        )
        assert outcome.reports is None
        assert window.entries == 20

    def test_collect_reports_rides_alongside_the_fold(self, corpus):
        window = WindowedSummary(WindowConfig(index_window=100))
        outcome = run_increment(
            corpus.records[:20], jobs=1, window=window, collect_reports=True
        )
        assert len(outcome.reports) == 20

    def test_base_index_keys_the_tumbling_windows(self, corpus):
        window = WindowedSummary(WindowConfig(index_window=100))
        run_increment(
            corpus.records[:20], base_index=250, jobs=1, window=window
        )
        assert window.index_windows() == [2]
        assert window.by_index[2].first_index == 250
        assert window.by_index[2].last_index == 269

    def test_fold_stage_is_recorded(self, corpus):
        stats = EngineStats()
        window = WindowedSummary(WindowConfig(index_window=100))
        Engine(stats).run_increment(corpus.records[:20], jobs=1, window=window)
        recorded = stats.to_dict()["stages"]
        assert "fold" in recorded
        assert recorded["fold"]["items"] == 20

    def test_no_fold_stage_without_a_window(self, corpus):
        stats = EngineStats()
        Engine(stats).run_increment(corpus.records[:20], jobs=1)
        assert "fold" not in stats.to_dict()["stages"]
