"""Satellite 3: engine-routed outputs vs the seed reference loop.

Every surface that routes through :mod:`repro.engine` must produce
byte-identical output to the reference oracle
(:func:`repro.lint.reference.reference_run_lints`: the per-lint loop
with every derived-view cache disabled), run serially.  Covered here:
merged corpus summaries (``jobs=1``, ``2`` and ``4`` vs the oracle),
collected per-certificate reports, the service worker primitive, and
the CLI JSON document, through ``repro lint`` and through the
``Engine.run`` call behind it.
"""

import datetime as dt

import pytest

from repro.cli import main
from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import Engine, run_corpus
from repro.lint.runner import summarize
from repro.lint.serialization import summary_to_json, report_to_json
from repro.lint.parallel import LintPool, ShardOutput, ShardTask, lint_shard
from repro.lint.reference import reference_run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=4002)


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=11, scale=0.00001).generate()


@pytest.fixture(scope="module")
def reference_reports(corpus):
    """The oracle: per-record loop, caches off."""
    return [
        reference_run_lints(r.certificate, issued_at=r.issued_at)
        for r in corpus.records
    ]


class TestCorpusSummaries:
    def test_serial_and_pool_match_reference(self, corpus, reference_reports):
        baseline = summary_to_json(summarize(reference_reports))
        one = run_corpus(corpus, jobs=1)
        four = run_corpus(corpus, jobs=4)
        assert summary_to_json(one.summary) == baseline
        assert summary_to_json(four.summary) == baseline
        assert one.jobs == 1
        assert four.jobs == 4

    def test_two_job_pool_route_matches_reference(self, corpus, reference_reports):
        baseline = summary_to_json(summarize(reference_reports))
        outcome = run_corpus(corpus, jobs=2)
        assert summary_to_json(outcome.summary) == baseline
        assert outcome.jobs == 2


class TestCollectedReports:
    def test_reports_byte_identical_across_jobs(self, corpus, reference_reports):
        one = run_corpus(corpus, jobs=1, output=ShardOutput.REPORTS)
        four = run_corpus(corpus, jobs=4, output=ShardOutput.REPORTS)
        expected = [
            report_to_json(report, record.certificate)
            for report, record in zip(reference_reports, corpus.records)
        ]
        for outcome in (one, four):
            got = [
                report_to_json(report, record.certificate)
                for report, record in zip(outcome.reports, corpus.records)
            ]
            assert got == expected

    def test_analysis_entry_matches_reference(self, corpus, reference_reports):
        from repro.analysis.compliance import lint_corpus

        reports = lint_corpus(corpus, jobs=1)
        assert len(reports) == len(corpus.records)
        expected = [
            report_to_json(report, record.certificate)
            for report, record in zip(reference_reports, corpus.records)
        ]
        got = [
            report_to_json(report, record.certificate)
            for report, record in zip(reports, corpus.records)
        ]
        assert got == expected


class TestServiceWorkerPrimitive:
    """The service's worker call: one shard task with JSON output."""

    def test_json_bodies_match_reference(self, corpus):
        ders = tuple(r.certificate.to_der() for r in corpus.records[:16])
        task = ShardTask(
            index=0,
            certs_der=ders,
            issued_at=(None,) * len(ders),
            output=ShardOutput.JSON,
        )
        expected = []
        for der in ders:
            cert = Certificate.from_der(der)
            expected.append(report_to_json(reference_run_lints(cert), cert))
        with LintPool(jobs=1) as pool:
            pooled = pool.submit_shard(task).result(timeout=60)
        for result in (lint_shard(task), pooled):
            assert result.reports == expected
            assert result.failures == []
            assert result.timings.certs == len(ders)
            assert result.timings.bytes == sum(len(d) for d in ders)


class TestCliSurface:
    def _cert(self):
        return (
            CertificateBuilder()
            .subject_cn("eq.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(subject_alt_name(GeneralName.dns("eq.example.com")))
            .sign(KEY)
        )

    def test_json_document_matches_reference(self, tmp_path, capsys):
        cert = self._cert()
        path = tmp_path / "cert.pem"
        path.write_text(encode_pem(cert.to_der()))
        assert main(["lint", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        reparsed = Certificate.from_der(cert.to_der())
        report = reference_run_lints(reparsed)
        assert out == report_to_json(report, reparsed) + "\n"

    def test_engine_run_json_matches_reference(self):
        # The call ``repro lint --json`` makes for one certificate.
        cert = self._cert()
        outcome = Engine().run([(cert.to_der(), None)], output=ShardOutput.JSON)
        assert outcome.failures == []
        reparsed = Certificate.from_der(cert.to_der())
        report = reference_run_lints(reparsed)
        assert outcome.reports == [report_to_json(report, reparsed)]
