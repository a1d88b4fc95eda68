"""Satellite 2: sharding/job-resolution edge cases, executor parity.

``resolve_jobs`` must clamp to the record count, zero-record corpora
must never manufacture empty shard tasks, and a single-record corpus
must produce exactly one non-empty task no matter how many shards are
requested.  Executors are interchangeable: serial and pool runs over
the same tasks merge to the summary of the reference oracle
(:func:`repro.lint.reference.reference_run_lints`, run serially), and
both surface a worker failure as :class:`ShardError`.  An unparseable
record is one recorded failure, the same one whichever path decodes it:
a corpus run raises on it, and ``Engine.run`` (``repro lint``, a tail
batch) folds its neighbours at their own log indexes and reports it.  An explicit
executor sizes the default shard count by its own job count, and a
batch longer than one shard-loop block folds in log order.
"""

import datetime as dt
import os

import pytest

from repro.engine.executors import PoolExecutor, SerialExecutor
from repro.cli import main
from repro.engine.ingest import batch_pairs
from repro.engine.pipeline import Engine, run_corpus
from repro.engine.sinks import merge_shard_results
from repro.engine.stats import EngineStats
from repro.engine.windows import WindowConfig, WindowedSummary, cert_facts
from repro.lint.runner import summarize, CorpusSummary
from repro.lint.serialization import summary_to_json
from repro.lint.reference import reference_run_lints
from repro.lint.parallel import (
    SHARD_BLOCK,
    LintPool,
    ShardError,
    ShardOutput,
    ShardTask,
    build_pair_shard_tasks,
    default_shard_count,
    lint_shard,
    resolve_jobs,
    shard_bounds,
    usable_cpus,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=4003)


class _Record:
    """Minimal stand-in for a corpus record (certificate + issued_at)."""

    def __init__(self, certificate, issued_at=None):
        self.certificate = certificate
        self.issued_at = issued_at


def make_records(count):
    records = []
    for i in range(count):
        cert = (
            CertificateBuilder()
            .subject_cn(f"edge-{i}.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(
                subject_alt_name(GeneralName.dns(f"edge-{i}.example.com"))
            )
            .sign(KEY)
        )
        records.append(_Record(cert))
    return records


def oracle_summary(records) -> str:
    return summary_to_json(
        summarize(
            reference_run_lints(r.certificate, issued_at=r.issued_at)
            for r in records
        )
    )


class TestResolveJobs:
    def test_clamped_to_record_count(self):
        assert resolve_jobs(8, total=3) == 3

    def test_not_clamped_when_total_unknown(self):
        assert resolve_jobs(8) == 8

    def test_zero_total_leaves_jobs_unclamped(self):
        # An empty corpus still reports the jobs the caller asked for.
        assert resolve_jobs(8, total=0) == 8

    def test_all_cpus_clamped_by_tiny_corpus(self):
        assert resolve_jobs(None, total=2) == min(usable_cpus(), 2)

    def test_default_follows_scheduler_affinity_not_machine_count(self):
        # In cgroup/affinity-limited environments the scheduler mask is
        # the real parallelism budget, not os.cpu_count().
        try:
            affinity = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            pytest.skip("platform exposes no scheduler affinity mask")
        assert resolve_jobs(None) == affinity


class TestShardBounds:
    def test_empty_input_yields_no_ranges(self):
        assert shard_bounds(0, 4) == []

    def test_empty_input_even_with_zero_shards(self):
        # The zero-record corpus path computes shards=0; that must not
        # trip the shards-must-be-positive guard.
        assert shard_bounds(0, 0) == []

    def test_zero_shards_with_records_still_raises(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)

    def test_more_shards_than_records_never_empty(self):
        bounds = shard_bounds(3, 8)
        assert len(bounds) == 3
        assert all(stop > start for start, stop in bounds)

    def test_default_shard_count_of_empty_corpus_is_zero(self):
        assert default_shard_count(0, 8) == 0


class TestShardTasks:
    def test_single_record_corpus_one_nonempty_task(self):
        records = make_records(1)
        tasks = build_pair_shard_tasks(batch_pairs(records), shards=8)
        assert len(tasks) == 1
        assert len(tasks[0].certs_der) == 1

    def test_no_task_is_ever_empty(self):
        records = make_records(5)
        for shards in (1, 2, 5, 9):
            tasks = build_pair_shard_tasks(batch_pairs(records), shards=shards)
            assert tasks, f"shards={shards} produced no tasks"
            assert all(task.certs_der for task in tasks)


class TestEmptyCorpus:
    def test_run_corpus_empty_is_a_clean_no_op(self):
        outcome = run_corpus([], jobs=4)
        assert outcome.shards == 0
        assert outcome.reports is None
        assert summary_to_json(outcome.summary) == summary_to_json(
            CorpusSummary()
        )

    def test_run_corpus_empty_with_reports_collects_nothing(self):
        outcome = run_corpus([], jobs=4, output=ShardOutput.REPORTS)
        assert outcome.reports == []


class TestJobsExceedRecords:
    def test_pool_run_clamps_workers(self):
        records = make_records(3)
        outcome = run_corpus(records, jobs=8, shards=3)
        # Three records, three shards: the pool is provisioned with
        # three workers, not eight.
        assert outcome.jobs == 3
        assert outcome.shards == 3

    def test_tiny_corpus_collapses_to_serial(self):
        records = make_records(2)
        outcome = run_corpus(records, jobs=8)
        # Two records fit one shard, which runs inline.
        assert outcome.jobs == 1
        assert outcome.shards == 1


class TestJobsPoolReconcile:
    """An explicit ``jobs`` alongside a shared pool is reconciled, not
    silently ignored: clamped to the pool's worker count by
    ``PoolExecutor`` and always to the record count by ``Engine.run``."""

    def test_explicit_jobs_clamped_to_pool_size(self):
        records = make_records(6)
        with LintPool(2) as pool:
            outcome = run_corpus(
                records, executor=PoolExecutor(8, pool=pool), shards=3
            )
        assert outcome.jobs == 2
        assert summary_to_json(outcome.summary) == oracle_summary(records)

    def test_explicit_smaller_jobs_rides_shared_pool(self):
        records = make_records(6)
        with LintPool(2) as pool:
            outcome = run_corpus(
                records, executor=PoolExecutor(1, pool=pool), shards=3
            )
        assert outcome.jobs == 1

    def test_pool_jobs_clamped_to_record_count(self):
        records = make_records(2)
        with LintPool(4) as pool:
            outcome = run_corpus(
                records, executor=PoolExecutor(pool=pool), shards=2
            )
        assert outcome.jobs == 2


class TestExecutorParity:
    def test_serial_and_pool_merge_identically(self):
        records = make_records(6)
        tasks = build_pair_shard_tasks(batch_pairs(records), shards=3)
        serial = SerialExecutor().run(tasks)
        pool = PoolExecutor(2).run(tasks)
        expected = oracle_summary(records)
        assert summary_to_json(merge_shard_results(serial, 1).summary) == expected
        assert summary_to_json(merge_shard_results(pool, 2).summary) == expected

    # A worker error (here: a substrate file that does not exist) fails
    # the run; an unparseable record does not (see below).
    def test_serial_executor_raises_shard_error(self, tmp_path):
        broken = ShardTask(index=0, store_path=str(tmp_path / "gone.rcs"), stop=1)
        with pytest.raises(ShardError):
            SerialExecutor().run([broken])

    def test_pool_executor_raises_shard_error(self, tmp_path):
        broken = ShardTask(index=0, store_path=str(tmp_path / "gone.rcs"), stop=1)
        with pytest.raises(ShardError):
            PoolExecutor(2).run([broken])

    def test_explicit_executor_sizes_the_default_shard_count(self):
        # 320 records: 4 shards for one job, 5 for the 4 jobs asked for.
        records = make_records(5 * 64)
        stats = EngineStats()
        outcome = run_corpus(records, 4, executor=SerialExecutor(), stats=stats)
        assert stats.jobs == outcome.jobs == 1
        assert len(stats.shard_sizes) == default_shard_count(len(records), 1)
        assert len(stats.shard_sizes) < default_shard_count(len(records), 4)
        assert summary_to_json(outcome.summary) == oracle_summary(records)

    @pytest.mark.parametrize("executor", ["serial", "pool"])
    def test_executors_return_unparseable_records(self, executor):
        bad = ShardTask(index=0, certs_der=(b"\x30\x00",), issued_at=(None,))
        run = SerialExecutor() if executor == "serial" else PoolExecutor(2)
        (result,) = run.run([bad])
        assert result.error is None
        assert [offset for offset, _ in result.failures] == [0]


def _broken(good: bytes, kind: str) -> bytes:
    if kind == "truncated":
        return good[:-1]
    if kind == "bit_flipped":
        flipped = bytearray(good)
        flipped[1] ^= 0x01  # the outer length no longer matches the input
        return bytes(flipped)
    return b"\x30\x03\x02\x01\x00"  # a SEQUENCE, not a certificate


class TestUnparseableRecords:
    @pytest.mark.parametrize("kind", ["truncated", "bit_flipped", "not_a_certificate"])
    def test_engine_and_shard_record_the_same_failure(self, kind, tmp_path, capsys):
        good = make_records(1)[0].certificate.to_der()
        bad = _broken(good, kind)
        # ``repro lint``'s call: the one record is a recorded failure.
        outcome = Engine().run([(bad, None)], output=ShardOutput.JSON)
        ((index, error),) = outcome.failures
        assert index == 0
        assert error.startswith("input is not a parseable certificate: ")
        assert outcome.reports == []
        assert outcome.summary.total == 0
        # ...which the CLI reports as status 2 with that message.
        path = tmp_path / "bad.der"
        path.write_bytes(bad)
        assert main(["lint", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        # One bad record fails only itself: its neighbours are linted.
        task = ShardTask(
            index=0, certs_der=(good, bad, good), issued_at=(None,) * 3
        )
        result = lint_shard(task)
        assert result.error is None
        assert result.failures == [(1, error)]
        assert result.summary.total == 2

    @pytest.mark.parametrize("shards", [1, 3])
    def test_increment_folds_around_an_unparseable_entry(self, shards):
        first, last = (r.certificate.to_der() for r in make_records(2))
        batch = [
            (first, dt.datetime(2023, 5, 1)),
            (b"\x30\x03\x02\x01\x00", dt.datetime(2021, 5, 1)),
            (last, dt.datetime(2024, 5, 1)),
        ]
        config = WindowConfig(index_window=2)
        window = WindowedSummary(config)
        outcome = Engine().run(
            batch, base_index=0, shards=shards, executor=SerialExecutor(), window=window
        )
        ((index, message),) = outcome.failures
        assert index == 1
        assert message.startswith("input is not a parseable certificate: ")
        assert outcome.summary.total == 2

        expected = WindowedSummary(config)
        for position in (0, 2):
            der, issued_at = batch[position]
            cert = Certificate.from_der(der)
            report = reference_run_lints(cert, issued_at=issued_at)
            expected.fold(position, issued_at, report, cert_facts(cert))
        assert window.to_json() == expected.to_json()
        assert sorted(window.by_epoch) == ["2023", "2024"]

    def test_increment_folds_in_log_order_across_blocks(self):
        good = [r.certificate.to_der() for r in make_records(2 * SHARD_BLOCK + 8)]
        batch = [
            (der, dt.datetime(2020 + position % 5, 1 + position % 12, 1))
            for position, der in enumerate(good)
        ]
        bad = (SHARD_BLOCK, len(batch) - 1)
        for position in bad:
            batch[position] = (b"\x30\x03\x02\x01\x00", batch[position][1])
        config = WindowConfig(index_window=SHARD_BLOCK // 2 + 3)
        window = WindowedSummary(config)
        outcome = Engine().run(
            batch, base_index=1000, shards=1, executor=SerialExecutor(), window=window
        )
        assert [index for index, _ in outcome.failures] == [1000 + p for p in bad]

        expected = WindowedSummary(config)
        for position, (der, issued_at) in enumerate(batch):
            if position in bad:
                continue
            cert = Certificate.from_der(der)
            report = reference_run_lints(cert, issued_at=issued_at)
            expected.fold(1000 + position, issued_at, report, cert_facts(cert))
        assert window.to_json() == expected.to_json()
