"""Corpus-scale lint throughput: memoized/indexed path vs reference.

Two layers:

* **Corpus benchmark** (``main()`` / ``test_corpus_lint_throughput``) —
  lints one seeded corpus three ways and records certs/sec for each:

  - ``before``: the reference oracle
    (:func:`repro.lint.reference.reference_run_lints`: the per-lint
    loop with every derived-view cache disabled), serially — kept
    callable precisely so the speedup claim is measured in the same
    tree it ships in;
  - ``after``: the production path (family signature and per-run scope
    masks, RegistryIndex family skipping, effective-date bisect, memoized extension/name
    views, compiled char-class dispatch) through the staged
    :mod:`repro.engine` pipeline's serial executor;
  - ``after_jobs``: the production path through the process-pool
    executor at ``--jobs N``.

  Each mode threads an :class:`repro.engine.stats.EngineStats` collector, so
  the record carries a per-stage (compile/decode/lint/sink) seconds
  breakdown alongside the headline rate.  Every run asserts the three
  summaries serialize byte-identically before any rate is reported,
  then writes the machine-readable record to
  ``benchmarks/output/BENCH_lint_throughput.json``.

* **Micro benchmarks** (pytest-benchmark) — single-certificate lint,
  DER parse, Punycode round-trip, build+sign; unchanged componentry.

CLI::

    PYTHONPATH=src python benchmarks/bench_linter_throughput.py \
        --scale 0.0002 --jobs 4
    # regression gate against a committed record (CI bench-smoke):
    ... --check benchmarks/output/BENCH_lint_throughput.json --tolerance 0.30
"""

import argparse
import datetime as dt
import json
import os
import pathlib
import sys
import time

from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import run_corpus
from repro.engine.stats import EngineStats
from repro.lint.runner import run_lints, summarize
from repro.lint.serialization import summary_to_json
from repro.lint.parallel import LintPool, usable_cpus
from repro.lint.reference import reference_run_lints
from repro.uni import punycode
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=2024)

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_THROUGHPUT_SCALE", 1 / 5000))
DEFAULT_SEED = int(os.environ.get("REPRO_BENCH_SEED", 2025))
DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_THROUGHPUT_JOBS", 4))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
RECORD_PATH = OUTPUT_DIR / "BENCH_lint_throughput.json"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _corpus_ders(corpus) -> list[bytes]:
    return [record.certificate.to_der() for record in corpus.records]


def _reference_run(corpus, stats: EngineStats):
    """The ``before`` leg: reparse and lint every record with the
    reference oracle, serially, timing the same stages the engine does."""
    with stats.time("ingest", items=len(corpus.records)):
        ders = _corpus_ders(corpus)
    reports = []
    for der, record in zip(ders, corpus.records):
        with stats.time("decode", items=1):
            cert = Certificate.from_der(der)
        with stats.time("lint", items=1):
            reports.append(reference_run_lints(cert, issued_at=record.issued_at))
    with stats.time("sink", items=len(reports)):
        return summarize(reports)


def _stage_block(stats: EngineStats) -> dict:
    """Per-stage wall/CPU seconds in canonical order, rounded.

    Wall is elapsed time as the caller saw it ("execute" spans the
    whole distributed phase on pool runs); cpu is processor time summed
    across every process that worked — the two are deliberately
    separate columns because summing worker wall clocks across
    time-sliced processes is exactly the inflation the old single-clock
    schema reported.
    """
    return {
        "wall": {
            stage: round(seconds, 3)
            for stage, seconds in stats.stage_wall_seconds().items()
        },
        "cpu": {
            stage: round(seconds, 3)
            for stage, seconds in stats.stage_cpu_seconds().items()
        },
    }


def measure(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED, jobs: int = DEFAULT_JOBS) -> dict:
    """Measure before/after corpus lint throughput; returns the record.

    ``before`` runs the oracle loop, ``after`` the engine's serial
    executor and ``after_jobs`` its process-pool executor, each with an
    injected stats collector, so each mode's entry carries a ``stages``
    breakdown.  Equivalence is asserted, not sampled: the reference,
    serial and ``--jobs N`` summaries must serialize byte-identically or
    the benchmark dies before reporting a single rate.
    """
    corpus = CorpusGenerator(seed=seed, scale=scale).generate()
    total = len(corpus.records)

    before_stats = EngineStats()
    before, before_s = _timed(lambda: _reference_run(corpus, before_stats))
    after_stats = EngineStats()
    after, after_s = _timed(lambda: run_corpus(corpus, jobs=1, stats=after_stats))
    # The fanout run measures the production shape: a warm pool
    # (workers forked, schedule built) dispatching O(1) substrate shard
    # references — worker start-up and corpus serialization are paid
    # before the clock starts, exactly as a long-lived caller pays them.
    fanout_stats = EngineStats()
    with LintPool(jobs) as pool:
        pool.prewarm()
        fanout, fanout_s = _timed(
            lambda: run_corpus(corpus, jobs=jobs, pool=pool, stats=fanout_stats)
        )

    baseline_json = summary_to_json(before)
    assert summary_to_json(after.summary) == baseline_json, (
        "optimized single-process summary diverged from the reference path"
    )
    assert summary_to_json(fanout.summary) == baseline_json, (
        f"--jobs {jobs} summary diverged from the reference path"
    )

    before_rate = total / before_s
    after_rate = total / after_s
    fanout_rate = total / fanout_s
    return {
        "bench": "lint_throughput",
        "certs": total,
        "scale": scale,
        "seed": seed,
        #: CPUs the run could actually use — parallel rates measured
        #: with effective_cpus < jobs carry no scaling information.
        "effective_cpus": usable_cpus(),
        "before": {
            "path": "reference_run_lints: per-lint loop, caches disabled",
            "seconds": round(before_s, 3),
            "certs_per_sec": round(before_rate, 1),
            "stages": _stage_block(before_stats),
        },
        "after": {
            "path": "run_lints + RegistryIndex + compiled kernels, serial executor",
            "seconds": round(after_s, 3),
            "certs_per_sec": round(after_rate, 1),
            "stages": _stage_block(after_stats),
        },
        "after_jobs": {
            "path": f"warm pool + mmap substrate, --jobs {jobs}",
            "jobs": jobs,
            "shards": fanout.shards,
            "seconds": round(fanout_s, 3),
            "certs_per_sec": round(fanout_rate, 1),
            "stages": _stage_block(fanout_stats),
        },
        "single_process_speedup": round(after_rate / before_rate, 2),
        "parallel_speedup": round(fanout_rate / after_rate, 2),
        "summaries_byte_identical": True,
    }


def write_record(record: dict) -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


def check_regression(record: dict, committed_path: pathlib.Path, tolerance: float) -> list[str]:
    """Compare a fresh record against a committed one.

    Returns failure messages (empty when the gate passes).  The gate is
    on certs/sec of the optimized single-process path — the number the
    PR's speedup claim is stated in — with ``tolerance`` headroom for
    machine variance between the committing host and the CI runner.
    """
    committed = json.loads(committed_path.read_text())
    failures: list[str] = []
    baseline = committed["after"]["certs_per_sec"]
    floor = baseline * (1.0 - tolerance)
    fresh = record["after"]["certs_per_sec"]
    if fresh < floor:
        failures.append(
            f"optimized throughput regressed: {fresh:.1f} certs/sec vs "
            f"committed {baseline:.1f} (floor {floor:.1f} at "
            f"{tolerance:.0%} tolerance)"
        )
    # Parallel-scaling gate: a warm --jobs N pool must not be slower
    # than the serial path — but only where N cores actually exist; a
    # multi-process speedup claim measured on fewer cores than workers
    # would be fiction, so the gate arms itself on capable hosts only.
    jobs = record["after_jobs"]["jobs"]
    if record["effective_cpus"] >= jobs:
        parallel = record["after_jobs"]["certs_per_sec"]
        if parallel < record["after"]["certs_per_sec"]:
            failures.append(
                f"--jobs {jobs} throughput ({parallel:.1f} certs/sec) fell "
                f"below serial ({record['after']['certs_per_sec']:.1f}) on "
                f"a {record['effective_cpus']}-CPU host"
            )
    if not record["summaries_byte_identical"]:
        failures.append("summaries no longer byte-identical")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="RECORD",
        help="compare against a committed BENCH_lint_throughput.json "
        "instead of overwriting it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed certs/sec regression fraction for --check "
        "(default 0.30)",
    )
    args = parser.parse_args(argv)

    record = measure(scale=args.scale, seed=args.seed, jobs=args.jobs)
    print(json.dumps(record, indent=2, sort_keys=True))

    if args.check is not None:
        failures = check_regression(record, args.check, args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    path = write_record(record)
    print(f"wrote {path}")
    return 0


def test_corpus_lint_throughput(write_output):
    """Pytest entry: smaller corpus, asserts the >=2x speedup claim."""
    record = measure(scale=1 / 20000)
    write_output(
        "bench_linter_throughput",
        [
            f"corpus: {record['certs']} certs (seed={record['seed']}, "
            f"scale={record['scale']:g})",
            f"before (uncached):  {record['before']['seconds']:8.2f}s  "
            f"{record['before']['certs_per_sec']:10.1f} certs/s",
            f"after  (compiled):  {record['after']['seconds']:8.2f}s  "
            f"{record['after']['certs_per_sec']:10.1f} certs/s",
            f"after  (--jobs {record['after_jobs']['jobs']}):  "
            f"{record['after_jobs']['seconds']:8.2f}s  "
            f"{record['after_jobs']['certs_per_sec']:10.1f} certs/s",
            f"single-process speedup: {record['single_process_speedup']:.2f}x",
            f"parallel speedup vs serial: {record['parallel_speedup']:.2f}x "
            f"({record['effective_cpus']} effective CPU(s))",
            "summaries byte-identical across all three paths: yes",
        ],
    )
    assert record["single_process_speedup"] >= 2.0, (
        f"expected >= 2x single-process speedup, "
        f"measured {record['single_process_speedup']:.2f}x"
    )
    # Timing assertions only where the cores exist to back them.
    if record["effective_cpus"] >= record["after_jobs"]["jobs"]:
        assert record["parallel_speedup"] >= 1.0, (
            f"warm --jobs {record['after_jobs']['jobs']} pool slower than "
            f"serial: {record['parallel_speedup']:.2f}x"
        )


# ---------------------------------------------------------------------------
# Component micro-benchmarks (pytest-benchmark)
# ---------------------------------------------------------------------------


def _sample_cert() -> Certificate:
    return (
        CertificateBuilder()
        .subject_cn("xn--mnchen-3ya.example.de")
        .not_before(dt.datetime(2024, 1, 1))
        .validity_days(90)
        .add_extension(subject_alt_name(GeneralName.dns("xn--mnchen-3ya.example.de")))
        .sign(KEY)
    )


def test_linter_throughput(benchmark):
    cert = _sample_cert()
    report = benchmark(run_lints, cert)
    assert not report.noncompliant


def test_der_parse_throughput(benchmark):
    der = _sample_cert().to_der()
    cert = benchmark(Certificate.from_der, der)
    assert cert.subject_common_names


def test_punycode_roundtrip_throughput(benchmark):
    def roundtrip():
        return punycode.decode(punycode.encode("bücher-münchen-straße"))

    assert benchmark(roundtrip) == "bücher-münchen-straße"


def test_build_and_sign_throughput(benchmark):
    cert = benchmark(_sample_cert)
    assert cert.tbs_der


if __name__ == "__main__":
    sys.exit(main())
