"""Substrate ↔ engine integration: zero-copy runs stay byte-identical.

The substrate only earns its place if every dispatch shape — inline
serial, fork pool, spawn pool, explicit ``CorpusStore`` input, spilled
plain records — merges to the byte-identical ``CorpusSummary``.  These
tests pin that, plus the O(1) task-pickle property and structured
failure when a worker meets a poisoned store.
"""

import datetime as dt
import pickle

import pytest

from repro.corpusstore.reader import CorpusStore
from repro.corpusstore.writer import write_store
from repro.engine.executors import PoolExecutor
from repro.engine.pipeline import run_corpus
from repro.lint.serialization import summary_to_json
from repro.lint.parallel import (
    LintPool,
    ShardError,
    ShardOutput,
    build_store_shard_tasks,
    lint_shard,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=4007)


class _Record:
    def __init__(self, certificate, issued_at=None):
        self.certificate = certificate
        self.issued_at = issued_at


def make_records(count):
    records = []
    for i in range(count):
        cert = (
            CertificateBuilder()
            .subject_cn(f"store-{i}.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(
                subject_alt_name(GeneralName.dns(f"store-{i}.example.com"))
            )
            .sign(KEY)
        )
        records.append(_Record(cert, dt.datetime(2024, 6, 1 + i % 20)))
    return records


@pytest.fixture(scope="module")
def records():
    return make_records(24)


@pytest.fixture(scope="module")
def reference_json(records):
    return summary_to_json(run_corpus(records, jobs=1).summary)


class TestStoreRuns:
    def test_store_serial_matches_inline(self, records, reference_json, tmp_path):
        path = write_store(records, tmp_path / "c.rcs")
        with CorpusStore(path) as store:
            outcome = run_corpus(store, jobs=1)
        assert summary_to_json(outcome.summary) == reference_json

    def test_store_pool_matches_inline(self, records, reference_json, tmp_path):
        path = write_store(records, tmp_path / "c.rcs")
        with CorpusStore(path) as store:
            outcome = run_corpus(store, jobs=2, shards=4)
        assert summary_to_json(outcome.summary) == reference_json
        assert outcome.shards == 4

    def test_spilled_plain_records_match_inline(self, records, reference_json):
        # Plain records through a pool spill to a temp substrate; the
        # result must not change because the transport did.
        outcome = run_corpus(records, jobs=2, shards=4)
        assert summary_to_json(outcome.summary) == reference_json

    def test_fork_and_spawn_pools_byte_identical(self, records, reference_json):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        with LintPool(2, start_method="fork") as fork_pool:
            forked = run_corpus(
                records, executor=PoolExecutor(pool=fork_pool), shards=4
            )
        with LintPool(2, start_method="spawn") as spawn_pool:
            spawned = run_corpus(
                records, executor=PoolExecutor(pool=spawn_pool), shards=4
            )
        assert summary_to_json(forked.summary) == reference_json
        assert summary_to_json(spawned.summary) == reference_json

    def test_reports_over_store(self, records, tmp_path):
        path = write_store(records, tmp_path / "c.rcs")
        with CorpusStore(path) as store:
            outcome = run_corpus(
                store, jobs=2, shards=3, output=ShardOutput.REPORTS
            )
        assert outcome.reports is not None
        assert len(outcome.reports) == len(records)


class TestStoreTasks:
    def test_task_pickle_is_constant_size(self, records, tmp_path):
        # The whole point of the substrate: a shard task referencing
        # 10k certificates pickles no larger than one referencing 10.
        path = write_store(records, tmp_path / "c.rcs")
        small = build_store_shard_tasks(path, 2, 1)
        large = build_store_shard_tasks(path, len(records), 1)
        assert len(pickle.dumps(large[0])) == len(pickle.dumps(small[0]))

    def test_shard_boundaries_cover_exactly_once(self, records, tmp_path):
        path = write_store(records, tmp_path / "c.rcs")
        tasks = build_store_shard_tasks(path, len(records), 5)
        spans = sorted((t.start, t.stop) for t in tasks)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(records)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start

    def test_poisoned_store_yields_structured_shard_error(self, tmp_path):
        # Unparseable DER inside the substrate must surface exactly the
        # way inline garbage does: ShardError, not a hung pool.
        path = write_store(
            [(b"\x30\x03not-der", None)] * 4, tmp_path / "bad.rcs"
        )
        with CorpusStore(path) as store:
            with pytest.raises(ShardError):
                run_corpus(store, jobs=2, shards=2)

    def test_lint_shard_never_raises_on_missing_store(self, tmp_path):
        task = build_store_shard_tasks(tmp_path / "gone.rcs", 4, 1)[0]
        result = lint_shard(task)
        assert result.error is not None
