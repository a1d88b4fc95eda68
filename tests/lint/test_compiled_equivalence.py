"""Equivalence proof for the compiled char-class dispatch path.

The compiled plan (:mod:`repro.lint.compiled`) is an over-approximation:
a lint's trigger bits staying clear must *prove* compliance, and fired
bits must hand off to the real check byte-for-byte.  These tests pin
that contract three ways: per-report equivalence against the reference
oracle (:func:`repro.lint.reference.reference_run_lints`, run serially)
over a seeded corpus (jobs 1 and 4, fork and spawn pools),
byte-identical replay of the committed fuzz witness corpus (adversarial
inputs are exactly where a fused scanner would diverge), and plan
coverage: every registered lint is compiled, in a fresh process and
from a sourceless install.
"""

import base64
import compileall
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.ct import CorpusGenerator
from repro.engine import EngineStats, run_corpus
from repro.lint import REGISTRY, run_lints, summarize, summary_to_json
from repro.lint.compiled import warm_default_plan
from repro.lint.framework import _INDEX_MEMO
from repro.lint.parallel import LintPool
from repro.lint.reference import reference_run_lints
from repro.lint.serialization import report_to_json
from repro.x509 import Certificate

WITNESS_DIR = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "witnesses"
SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Lints the default plan compiles: every registered lint.
DEFAULT_COMPILED = 95


@pytest.fixture(scope="module")
def corpus():
    # ~170 records spanning the generator's issuer/IDN/noncompliance mix.
    return CorpusGenerator(seed=11, scale=1 / 200000).generate()


@pytest.fixture(scope="module")
def oracle_summary(corpus):
    """The reference oracle's summary, built serially."""
    return summary_to_json(
        summarize(
            reference_run_lints(r.certificate, issued_at=r.issued_at)
            for r in corpus.records
        )
    )


def _report_shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


class TestCompiledReportEquivalence:
    def test_every_report_identical_to_oracle(self, corpus):
        for record in corpus.records:
            reference = reference_run_lints(
                record.certificate, issued_at=record.issued_at
            )
            compiled = run_lints(record.certificate, issued_at=record.issued_at)
            assert _report_shape(compiled) == _report_shape(reference)

    def test_summary_identical_across_jobs(self, corpus, oracle_summary):
        for jobs in (1, 4):
            outcome = run_corpus(corpus, jobs=jobs)
            assert summary_to_json(outcome.summary) == oracle_summary

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_equivalence_across_start_methods(
        self, corpus, oracle_summary, start_method
    ):
        with LintPool(2, start_method=start_method) as pool:
            pool.prewarm()
            outcome = run_corpus(corpus, jobs=2, pool=pool)
        assert summary_to_json(outcome.summary) == oracle_summary


class TestWitnessReplayEquivalence:
    """Satellite: the committed fuzz corpus through the compiled registry."""

    def _witness_ders(self):
        files = sorted(WITNESS_DIR.glob("cell-*.json"))
        assert len(files) >= 97, f"expected the committed witness corpus, got {files}"
        for path in files:
            yield path.name, base64.b64decode(
                json.loads(path.read_text())["der_b64"]
            )

    def test_all_witnesses_byte_identical(self):
        replayed = 0
        for name, der in self._witness_ders():
            # Fresh objects per path: no memoized view may leak results
            # from one path into the other.
            cert_ref = Certificate.from_der(der)
            cert_new = Certificate.from_der(der)
            reference = report_to_json(reference_run_lints(cert_ref), cert_ref)
            compiled = report_to_json(run_lints(cert_new), cert_new)
            assert compiled == reference, f"compiled diverged on {name}"
            replayed += 1
        assert replayed >= 97


#: Lints one parsed certificate in a fresh interpreter, then prints how
#: many lints the default plan compiles.
_FRESH_PROCESS_SCRIPT = """
import datetime as dt
import json

from repro.lint import REGISTRY, index_for, run_lints
from repro.x509 import (
    Certificate, CertificateBuilder, GeneralName, generate_keypair, subject_alt_name,
)

name = "xn--bcher-kva.example.com"
built = (
    CertificateBuilder()
    .subject_cn(name)
    .not_before(dt.datetime(2024, 1, 1))
    .add_extension(subject_alt_name(GeneralName.dns(name)))
    .sign(generate_keypair(seed=5))
)
report = run_lints(Certificate.from_der(built.to_der()))
plan = index_for(REGISTRY.snapshot()).compiled_plan()
print(json.dumps({
    "results": len(report.results),
    "compiled": len(plan.compiled_names),
    "origin": __import__("repro").__file__,
}))
"""


def _run_fresh(pythonpath: pathlib.Path, cwd: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(pythonpath), PYTHONDONTWRITEBYTECODE="1")
    completed = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_SCRIPT],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


class TestDeclaredKernels:
    """The plan reads each lint's declared ``scan``, nothing else."""

    def test_fresh_process_compiles_every_declared_kernel(self, tmp_path):
        outcome = _run_fresh(SRC_DIR, tmp_path)
        assert outcome["results"] > 0
        assert outcome["compiled"] == DEFAULT_COMPILED

    def test_sourceless_package_compiles_the_same_plan(self, tmp_path):
        package = tmp_path / "repro"
        shutil.copytree(
            SRC_DIR / "repro", package, ignore=shutil.ignore_patterns("__pycache__")
        )
        assert compileall.compile_dir(package, legacy=True, quiet=1)
        for source in package.rglob("*.py"):
            source.unlink()
        outcome = _run_fresh(tmp_path, tmp_path)
        assert outcome["origin"] == str(package / "__init__.pyc")
        assert outcome["compiled"] == DEFAULT_COMPILED


class TestCompileStageStats:
    def test_warm_records_compile_stage_once(self):
        lints = REGISTRY.snapshot()
        built = _INDEX_MEMO.pop(lints, None)
        try:
            stats = EngineStats()
            warm_default_plan(stats)
            assert "compile" in stats.stage_wall_seconds()
        finally:
            if built is not None:
                _INDEX_MEMO[lints] = built
        rewarm = EngineStats()
        warm_default_plan(rewarm)
        assert "compile" not in rewarm.stage_wall_seconds()
