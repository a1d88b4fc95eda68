"""Tests for the sharded parallel corpus-lint pipeline.

Covers the determinism guarantee (``--jobs N`` byte-identical to
``--jobs 1`` and to the reference oracle run serially), exact-merge
algebra (commutativity/associativity), deterministic sharding,
worker-crash surfacing, the block-staged shard loop on shards longer
than one block, the registry schedule workers lint with, and the
reusable worker pool.
"""

import datetime as dt
import json
import os

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.engine.executors import PoolExecutor
from repro.engine.ingest import batch_pairs
from repro.engine.pipeline import run_corpus
from repro.lint.framework import (
    REGISTRY,
    FunctionLint,
    LintMetadata,
    LintRegistry,
    NoncomplianceType,
    RFC5280_DATE,
    Severity,
    Source,
)
from repro.lint.parallel import (
    ShardError,
    shard_bounds,
    MIN_SHARD_SIZE,
    SHARD_BLOCK,
    LintPool,
    ShardOutput,
    ShardTask,
    build_pair_shard_tasks,
    default_shard_count,
    lint_shard,
    resolve_jobs,
    unparseable_message,
)
from repro.lint.runner import CorpusSummary, run_lints, summarize
from repro.lint.serialization import report_to_json, summary_to_json, report_to_dict
from repro.asn1.errors import ASN1Error
from repro.lint.reference import reference_run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

from ..registry_helpers import registered

KEY = generate_keypair(seed=77)
WHEN = dt.datetime(2024, 4, 1)


@pytest.fixture(scope="module")
def corpus():
    # ~170 records: enough to exercise multiple shards, small enough to
    # lint three times in a few seconds.
    return CorpusGenerator(seed=11, scale=1 / 200000).generate()


def _oracle_summary(corpus, respect_effective_dates=True) -> str:
    return summary_to_json(
        summarize(
            reference_run_lints(
                r.certificate,
                issued_at=r.issued_at,
                respect_effective_dates=respect_effective_dates,
            )
            for r in corpus.records
        )
    )


def _cert(cn, san=None):
    builder = CertificateBuilder().subject_cn(cn).not_before(WHEN)
    builder.add_extension(subject_alt_name(GeneralName.dns(san or cn)))
    return builder.sign(KEY)


class TestShardBounds:
    def test_partition_covers_everything_contiguously(self):
        for total in (0, 1, 5, 64, 1000, 1001):
            for shards in (1, 2, 3, 7, 16):
                bounds = shard_bounds(total, shards)
                flat = [i for start, stop in bounds for i in range(start, stop)]
                assert flat == list(range(total))

    def test_near_equal_sizes(self):
        bounds = shard_bounds(10, 3)
        sizes = [stop - start for start, stop in bounds]
        assert sizes == [4, 3, 3]

    def test_never_produces_empty_shards(self):
        assert len(shard_bounds(3, 16)) == 3
        assert shard_bounds(0, 4) == []

    def test_deterministic(self):
        assert shard_bounds(1000, 7) == shard_bounds(1000, 7)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 4)

    def test_default_shard_count_respects_min_size(self):
        # 100 records at 8 jobs would mean 32 shards of ~3 certs; the
        # heuristic clamps to keep shards at least MIN_SHARD_SIZE.
        assert default_shard_count(100, 8) <= max(1, 100 // MIN_SHARD_SIZE)
        assert default_shard_count(0, 8) == 0
        assert default_shard_count(10_000, 4) == 16

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1


class TestMergeAlgebra:
    def _summaries(self):
        reports = [
            [run_lints(_cert("clean.example.com"))],
            [run_lints(_cert("bad\x00.example.com"))] * 2,
            [run_lints(_cert("ok.example.org")), run_lints(_cert("x\x00y.example.net"))],
        ]
        return [summarize(r) for r in reports]

    def test_merge_commutative(self):
        a1, b1, _ = self._summaries()
        a2, b2, _ = self._summaries()
        ab = CorpusSummary.merged([a1, b1])
        ba = CorpusSummary.merged([b2, a2])
        assert ab == ba
        assert summary_to_json(ab) == summary_to_json(ba)

    def test_merge_associative(self):
        a, b, c = self._summaries()
        a2, b2, c2 = self._summaries()
        left = CorpusSummary.merged([CorpusSummary.merged([a, b]), c])
        right = CorpusSummary.merged([a2, CorpusSummary.merged([b2, c2])])
        assert left == right
        assert summary_to_json(left) == summary_to_json(right)

    def test_merge_identity(self):
        a, _, _ = self._summaries()
        a2, _, _ = self._summaries()
        assert CorpusSummary().merge(a) == a2

    def test_merge_equals_streaming(self):
        reports = [
            run_lints(_cert("clean.example.com")),
            run_lints(_cert("bad\x00.example.com")),
            run_lints(_cert("also\x00bad.example.com")),
        ]
        whole = summarize(reports)
        sharded = CorpusSummary.merged(
            [summarize(reports[:1]), summarize(reports[1:])]
        )
        assert whole == sharded
        assert summary_to_json(whole) == summary_to_json(sharded)

    def test_top_lints_tiebreak_identical_after_merge(self):
        reports = [
            run_lints(_cert("bad\x00.example.com")),
            run_lints(_cert("worse\x00.example.com")),
        ]
        whole = summarize(reports)
        merged = CorpusSummary.merged(
            [summarize(reports[1:]), summarize(reports[:1])]
        )
        assert whole.top_lints(50) == merged.top_lints(50)


class TestDeterminism:
    def test_jobs4_byte_identical_to_jobs1_and_oracle(self, corpus):
        # Same seed, different job counts: byte-for-byte identical
        # summaries, both equal to the oracle's.
        one = run_corpus(corpus, jobs=1)
        four = run_corpus(corpus, jobs=4)
        assert summary_to_json(one.summary) == _oracle_summary(corpus)
        assert summary_to_json(four.summary) == _oracle_summary(corpus)

    def test_pipeline_matches_classic_sequential_path(self, corpus):
        from repro.analysis.compliance import lint_corpus, summarize_corpus

        classic = summarize(lint_corpus(corpus, jobs=1))
        piped = summarize_corpus(corpus, jobs=2)
        assert summary_to_json(classic) == summary_to_json(piped)

    def test_reports_come_back_in_corpus_order(self, corpus):
        seq = run_corpus(corpus, jobs=1, output=ShardOutput.REPORTS)
        par = run_corpus(corpus, jobs=2, output=ShardOutput.REPORTS)
        assert len(seq.reports) == len(par.reports) == len(corpus.records)
        for left, right in zip(seq.reports, par.reports):
            assert json.dumps(report_to_dict(left), sort_keys=True) == json.dumps(
                report_to_dict(right), sort_keys=True
            )

    def test_shard_count_does_not_change_summary(self, corpus):
        a = run_corpus(corpus, jobs=1, shards=1)
        b = run_corpus(corpus, jobs=1, shards=7)
        assert summary_to_json(a.summary) == summary_to_json(b.summary)

    def test_empty_corpus(self):
        outcome = run_corpus([], jobs=4, output=ShardOutput.REPORTS)
        assert outcome.summary.total == 0
        assert outcome.reports == []
        assert outcome.shards == 0

    def test_respects_effective_dates_flag(self, corpus):
        with_dates = run_corpus(corpus, jobs=2).summary
        without = run_corpus(corpus, jobs=2, respect_effective_dates=False).summary
        assert without.noncompliant >= with_dates.noncompliant
        assert summary_to_json(without) == _oracle_summary(
            corpus, respect_effective_dates=False
        )


class _BrokenCert:
    """Stands in for a certificate whose DER cannot be parsed."""

    def to_der(self) -> bytes:
        return b"\x30\x03garbage-that-is-not-der"


class TestWorkerCrash:
    def _poisoned(self, corpus):
        import copy

        poisoned = copy.copy(corpus)
        poisoned.records = list(corpus.records)
        victim = copy.copy(poisoned.records[len(poisoned.records) // 2])
        victim.certificate = _BrokenCert()
        poisoned.records[len(poisoned.records) // 2] = victim
        return poisoned

    def test_shard_failure_surfaces_clear_error_parallel(self, corpus):
        with pytest.raises(ShardError) as excinfo:
            run_corpus(self._poisoned(corpus), jobs=2, shards=4)
        message = str(excinfo.value)
        assert "shard" in message
        assert "parallel lint pipeline" in message

    def test_shard_failure_surfaces_clear_error_inline(self, corpus):
        with pytest.raises(ShardError) as excinfo:
            run_corpus(self._poisoned(corpus), jobs=1, shards=4)
        assert excinfo.value.index >= 0

    def test_lint_shard_never_raises(self, corpus, tmp_path):
        tasks = build_pair_shard_tasks(batch_pairs(self._poisoned(corpus)), shards=2)
        results = [lint_shard(task) for task in tasks]
        assert not any(r.error for r in results)
        failed = next(r for r in results if r.failures)
        # The unparseable record is recorded; the rest of its shard is linted.
        ((_offset, message),) = failed.failures
        assert message.startswith("input is not a parseable certificate: ")
        assert failed.summary.total == failed.count - 1
        # A failure outside decode carries the worker-side traceback.
        crashed = lint_shard(
            ShardTask(index=0, store_path=str(tmp_path / "gone.rcs"), stop=1)
        )
        assert "Traceback" in crashed.error


def _one_shard(pairs, output=ShardOutput.SUMMARY, collect_facts=False) -> ShardTask:
    return ShardTask(
        index=0,
        certs_der=tuple(der for der, _ in pairs),
        issued_at=tuple(issued for _, issued in pairs),
        output=output,
        collect_facts=collect_facts,
    )


class TestBlockLoop:
    """``lint_shard`` over one shard that spans several blocks."""

    @pytest.fixture(scope="class")
    def pairs(self, corpus):
        pairs = batch_pairs(corpus)
        assert len(pairs) > 2 * SHARD_BLOCK
        return pairs

    def test_unparseable_records_keep_offsets_and_messages(self, pairs):
        garbage = {
            0: b"\x30\x03\x02\x01\x00",  # a SEQUENCE, not a certificate
            SHARD_BLOCK - 1: pairs[0][0][:-1],  # truncated
            SHARD_BLOCK: b"\x30\x80",  # indefinite length
            2 * SHARD_BLOCK + 1: b"",
            len(pairs) - 1: b"\x04\x01",  # a truncated OCTET STRING
        }
        records = [
            (garbage.get(offset, der), issued) for offset, (der, issued) in enumerate(pairs)
        ]
        expected = []
        for offset in sorted(garbage):
            with pytest.raises(ASN1Error) as excinfo:
                Certificate.from_der(garbage[offset])
            expected.append((offset, unparseable_message(excinfo.value)))
        assert len({message for _, message in expected}) > 1

        result = lint_shard(_one_shard(records, collect_facts=True))
        assert result.error is None
        assert result.failures == expected
        assert [offset for offset, _, _ in result.facts] == [
            offset for offset in range(len(records)) if offset not in garbage
        ]
        good = [
            reference_run_lints(Certificate.from_der(der), issued_at=issued)
            for offset, (der, issued) in enumerate(records)
            if offset not in garbage
        ]
        assert summary_to_json(result.summary) == summary_to_json(summarize(good))
        assert result.timings.certs == len(good)

    def test_summary_equals_the_serial_reference(self, corpus, pairs):
        result = lint_shard(_one_shard(pairs))
        assert result.error is None and result.failures == []
        assert summary_to_json(result.summary) == _oracle_summary(corpus)
        for stage in ("decode", "lint", "sink"):
            assert result.timings.items[stage] == len(pairs)

    def test_outputs_keep_record_order_across_blocks(self, pairs):
        reports = lint_shard(_one_shard(pairs, ShardOutput.REPORTS)).reports
        bodies = lint_shard(_one_shard(pairs, ShardOutput.JSON)).reports
        assert len(reports) == len(bodies) == len(pairs)
        for (der, issued), report, body in zip(pairs, reports, bodies):
            cert = Certificate.from_der(der)
            expected = reference_run_lints(cert, issued_at=issued)
            assert report_to_dict(report) == report_to_dict(expected)
            assert body == report_to_json(expected, cert)

    def test_lint_raising_in_the_second_block_keeps_finished_timings(self, pairs):
        target = pairs[SHARD_BLOCK + 3][0]

        def check(cert):
            if cert.raw == target:
                raise RuntimeError("planted lint failure")
            return True, ""

        lint = FunctionLint(
            _test_lint("e_test_raises_in_second_block", fires=False).metadata,
            lambda cert: True,
            check,
        )
        with registered(lint):
            result = lint_shard(_one_shard(pairs))
        assert "RuntimeError: planted lint failure" in result.error
        assert "Traceback" in result.error
        # The first block finished: its stages are booked.
        assert result.timings.certs == SHARD_BLOCK
        for stage in ("decode", "lint", "sink"):
            assert result.timings.items[stage] == SHARD_BLOCK
            assert result.timings.wall[stage] > 0


class TestRegistryCache:
    def test_snapshot_is_cached(self):
        assert REGISTRY.snapshot() is REGISTRY.snapshot()
        assert list(REGISTRY.snapshot()) == REGISTRY.all()

    def test_snapshot_invalidated_on_register(self):
        registry = LintRegistry()
        before = registry.snapshot()
        lint = _test_lint("e_test_snapshot_invalidation", fires=False)
        registry.register(lint)
        after = registry.snapshot()
        assert before == ()
        assert after == (lint,)

    def test_serial_run_sees_a_lint_registered_after_a_run(self, corpus):
        records = corpus.records[:8]
        run_corpus(records, jobs=1)  # resolves the schedule once
        with registered(_test_lint("e_test_registered_late", fires=True)) as lint:
            direct = run_lints(records[0].certificate, issued_at=records[0].issued_at)
            assert lint.metadata.name in direct.fired_lints()
            summary = run_corpus(records, jobs=1).summary
            assert summary.per_lint.get(lint.metadata.name) == len(records)
        after = run_corpus(records, jobs=1).summary
        assert "e_test_registered_late" not in after.per_lint


def _test_lint(name: str, fires: bool) -> FunctionLint:
    return FunctionLint(
        LintMetadata(
            name=name,
            description="",
            citation="",
            source=Source.RFC5280,
            severity=Severity.ERROR,
            nc_type=NoncomplianceType.ILLEGAL_FORMAT,
            effective_date=RFC5280_DATE,
        ),
        lambda cert: True,
        lambda cert: (not fires, "planted" if fires else ""),
    )


def _worker_spill_state() -> tuple[int, int]:
    """In a pool worker: cached and mapped engine spill files.

    Spills are the ``repro-corpus-*`` files ``run_corpus`` writes for a
    pool; a forked worker may also have inherited the parent's cache of
    other stores, which this ignores.
    """
    from repro.lint import parallel

    cached = sum("repro-corpus-" in path for path in parallel._WORKER_STORES)
    mapped = 0
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as handle:
            mapped = sum("repro-corpus-" in line for line in handle)
    return cached, mapped


class TestLintPool:
    """The reusable pool handle: shared by the batch pipeline and the
    lint service instead of a per-call multiprocessing.Pool."""

    def test_corpus_results_identical_through_a_reused_pool(self, corpus):
        baseline = _oracle_summary(corpus)
        with LintPool(jobs=2) as pool:
            first = run_corpus(corpus, executor=PoolExecutor(pool=pool))
            second = run_corpus(corpus, executor=PoolExecutor(pool=pool))
            assert summary_to_json(first.summary) == baseline
            assert summary_to_json(second.summary) == baseline
            assert first.jobs == 2

    def test_reused_pool_keeps_at_most_one_spilled_store(self, corpus):
        # Every run over a shared pool spills to a fresh path; a worker
        # must not keep a mapping of each finished run's deleted spill.
        records = corpus.records[:40]
        baseline = summary_to_json(run_corpus(records, jobs=1).summary)
        with LintPool(jobs=1) as pool:
            for _ in range(6):
                outcome = run_corpus(records, executor=PoolExecutor(1, pool=pool))
                assert summary_to_json(outcome.summary) == baseline
            cached, mapped = pool.executor.submit(_worker_spill_state).result(
                timeout=60
            )
        assert cached <= 1
        assert mapped <= 1

    def test_submit_shard_json_matches_cli_serialization(self):
        certs = [_cert("pool-a.example.com"), _cert("bad\x00pool.example.com")]
        ders = tuple(c.to_der() for c in certs)
        expected = [report_to_json(reference_run_lints(c), c) for c in certs]
        task = ShardTask(
            index=0, certs_der=ders, issued_at=(None, None), output=ShardOutput.JSON
        )
        # Inline worker function...
        assert lint_shard(task).reports == expected
        # ...and through a real worker process.
        with LintPool(jobs=1) as pool:
            assert pool.submit_shard(task).result(timeout=60).reports == expected

    def test_shutdown_is_idempotent_and_reentrant(self):
        pool = LintPool(jobs=1)
        pool.shutdown()  # never started: no executor to tear down
        der = _cert("re.example.com").to_der()
        task = ShardTask(index=0, certs_der=(der,), issued_at=(None,))
        pool.submit_shard(task).result(timeout=60)
        pool.shutdown()
        pool.shutdown()
