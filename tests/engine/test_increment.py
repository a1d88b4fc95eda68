"""``Engine.run`` as the pull-based core of the incremental engine.
Folding the corpus in bounded batches — in any decomposition, at any
job count, from any batch shape or transport — must reproduce the
one-shot batch summary byte for byte, because both sides run the
identical merge algebra."""

import datetime as dt

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.corpusstore.reader import CorpusStore
from repro.corpusstore.writer import write_store
from repro.engine.executors import PoolExecutor, SerialExecutor
from repro.engine.ingest import batch_pairs
from repro.engine.pipeline import Engine, run_corpus
from repro.engine.stats import EngineStats
from repro.engine.windows import WindowConfig, WindowedSummary
from repro.lint.parallel import LintPool, ShardOutput
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
        engine.run(batch, base_index=start, jobs=jobs, window=window)
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

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_spilled_pool_batches_match_serial(self, corpus, one_shot, start_method):
        # A batch headed for a pool spills to a substrate; the windows it
        # folds must not depend on the transport or the start method.
        serial = _fold_in_batches(corpus, 128, jobs=1)
        window = WindowedSummary(WindowConfig(index_window=100))
        records = corpus.records
        with LintPool(2, start_method=start_method) as pool:
            for start in range(0, len(records), 128):
                Engine().run(
                    records[start : start + 128],
                    base_index=start,
                    executor=PoolExecutor(pool=pool),
                    window=window,
                )
        assert window.to_json() == serial.to_json()
        assert summary_to_json(window.total.summary) == one_shot

    @pytest.mark.parametrize("executor", [SerialExecutor, lambda: PoolExecutor(2)])
    def test_store_batch_folds_like_its_records(self, corpus, tmp_path, executor):
        # A store ships as (path, start, stop) references; its facts and
        # issued-at column must fold exactly as the records' own.
        records = corpus.records[:150]
        expected = WindowedSummary(WindowConfig(index_window=50))
        Engine().run(records, base_index=7, shards=3, window=expected)
        window = WindowedSummary(WindowConfig(index_window=50))
        with CorpusStore(write_store(records, tmp_path / "c.rcs")) as store:
            Engine().run(
                store, base_index=7, shards=3, executor=executor(), window=window
            )
        assert window.entries == len(records)
        assert window.to_json() == expected.to_json()

    def test_window_state_round_trips_byte_identically(self, corpus):
        window = _fold_in_batches(corpus, 64, jobs=1)
        clone = WindowedSummary.from_dict(window.to_dict())
        assert clone.to_json() == window.to_json()


class TestBatchShapes:
    def test_batch_pairs_accepts_corpus_records(self, corpus):
        pairs = batch_pairs(corpus.records[:3])
        for record, (der, issued_at) in zip(corpus.records, pairs):
            assert der == record.certificate.to_der()
            assert issued_at == record.issued_at

    def test_batch_pairs_accepts_a_records_wrapper(self, corpus):
        assert batch_pairs(corpus)[:3] == batch_pairs(corpus.records[:3])

    def test_batch_pairs_accepts_der_entries(self, corpus):
        class Entry:
            def __init__(self, der, issued_at):
                self.der = der
                self.issued_at = issued_at

        record = corpus.records[0]
        der = record.certificate.to_der()
        pairs = batch_pairs([Entry(der, record.issued_at)])
        assert pairs == [(der, record.issued_at)]

    def test_batch_pairs_accepts_raw_pairs(self):
        when = dt.datetime(2021, 1, 1)
        der = b"\x30\x00"
        ((got, at),) = batch_pairs([(der, when)])
        assert (got, at) == (der, when)
        assert got is der  # the tuple fast path copies nothing
        assert batch_pairs([[bytearray(der), when]]) == [(der, when)]

    def test_all_shapes_lint_identically(self, corpus):
        records = corpus.records[:40]
        reference = Engine().run(records, jobs=1)
        raw = Engine().run(batch_pairs(records), jobs=1)
        assert summary_to_json(raw.summary) == summary_to_json(
            reference.summary
        )


class TestOutcomeContract:
    def test_empty_batch_is_a_zero_summary(self):
        outcome = Engine().run([], jobs=1)
        assert outcome.summary.total == 0
        assert outcome.reports is None

    def test_reports_stay_private_to_the_fold(self, corpus):
        window = WindowedSummary(WindowConfig(index_window=100))
        outcome = Engine().run(corpus.records[:20], jobs=1, window=window)
        assert outcome.reports is None
        assert window.entries == 20

    def test_reports_ride_alongside_the_fold(self, corpus):
        window = WindowedSummary(WindowConfig(index_window=100))
        outcome = Engine().run(
            corpus.records[:20], jobs=1, window=window, output=ShardOutput.REPORTS
        )
        assert len(outcome.reports) == 20

    def test_base_index_keys_the_tumbling_windows(self, corpus):
        window = WindowedSummary(WindowConfig(index_window=100))
        Engine().run(corpus.records[:20], base_index=250, jobs=1, window=window)
        assert window.index_windows() == [2]
        assert window.by_index[2].first_index == 250
        assert window.by_index[2].last_index == 269

    def test_fold_stage_is_recorded(self, corpus):
        stats = EngineStats()
        window = WindowedSummary(WindowConfig(index_window=100))
        Engine(stats).run(corpus.records[:20], jobs=1, window=window)
        recorded = stats.to_dict()["stages"]
        assert "fold" in recorded
        assert recorded["fold"]["items"] == 20

    def test_no_fold_stage_without_a_window(self, corpus):
        stats = EngineStats()
        Engine(stats).run(corpus.records[:20], jobs=1)
        assert "fold" not in stats.to_dict()["stages"]
