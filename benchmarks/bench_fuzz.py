"""Fuzzing-campaign benchmark: mutant throughput and novelty yield.

Runs one fixed-seed campaign through :func:`repro.fuzz.campaign.run_fuzz_campaign`
(witness minimization capped so the measured number is evaluation
throughput, not ddmin cost) and records:

* ``mutants_per_sec`` — mutants generated + evaluated per second;
* ``novel_per_10k`` — novel behaviour-matrix cells per 10k mutants (the
  campaign's discovery yield against the Tables 4/5 baseline);
* the per-stage wall/CPU breakdown from the injected
  :class:`repro.engine.stats.EngineStats`.

The record lands in ``benchmarks/output/BENCH_fuzz.json``.  CLI::

    PYTHONPATH=src python benchmarks/bench_fuzz.py --budget 2000
    # regression gate against a committed record (CI fuzz-smoke):
    ... --check benchmarks/output/BENCH_fuzz.json --tolerance 0.50
"""

import argparse
import json
import pathlib
import sys
import time

from repro.engine.stats import EngineStats
from repro.fuzz.campaign import FuzzConfig, run_fuzz_campaign

DEFAULT_SEED = 2025
DEFAULT_BUDGET = 2000

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
RECORD_PATH = OUTPUT_DIR / "BENCH_fuzz.json"


def _stage_block(stats: EngineStats) -> dict:
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


def measure(
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    jobs: int | None = None,
) -> dict:
    """Run one campaign and return the benchmark record."""
    stats = EngineStats()
    config = FuzzConfig(
        seed=seed, budget=budget, jobs=jobs, max_witnesses=0
    )
    start = time.perf_counter()
    result = run_fuzz_campaign(config, stats=stats)
    elapsed = time.perf_counter() - start
    return {
        "bench": "fuzz",
        "seed": seed,
        "budget": budget,
        "jobs": jobs or 1,
        "seconds": round(elapsed, 3),
        "mutants": result.mutants,
        "mutants_per_sec": round(result.mutants / elapsed, 1),
        "baseline_cells": result.baseline_cells,
        "novel_cells": result.novel_cells,
        "novel_disagreements": result.novel_disagreements,
        "novel_per_10k": round(result.novel_per_10k, 1),
        "stages": _stage_block(stats),
    }


def write_record(record: dict) -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


def check_regression(
    record: dict, committed_path: pathlib.Path, tolerance: float
) -> list[str]:
    """Gate a fresh record against the committed one.

    Throughput gets ``tolerance`` headroom for machine variance; the
    novelty yield of a *fixed-seed* campaign is deterministic, so any
    drift there means the mutation engine or the oracle changed
    behaviour and the committed record (and witness corpus) must be
    regenerated deliberately.
    """
    committed = json.loads(committed_path.read_text())
    failures: list[str] = []
    floor = committed["mutants_per_sec"] * (1.0 - tolerance)
    if record["mutants_per_sec"] < floor:
        failures.append(
            f"fuzz throughput regressed: {record['mutants_per_sec']:.1f} "
            f"mutants/sec vs committed {committed['mutants_per_sec']:.1f} "
            f"(floor {floor:.1f} at {tolerance:.0%} tolerance)"
        )
    if (
        record["seed"] == committed["seed"]
        and record["budget"] == committed["budget"]
        and record["novel_cells"] != committed["novel_cells"]
    ):
        failures.append(
            f"fixed-seed novelty drifted: {record['novel_cells']} novel "
            f"cells vs committed {committed['novel_cells']} — the mutation "
            "engine or oracle changed behaviour"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="RECORD",
        help="compare against a committed BENCH_fuzz.json instead of "
        "overwriting it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.50,
        help="allowed mutants/sec regression fraction for --check "
        "(default 0.50)",
    )
    args = parser.parse_args(argv)

    record = measure(seed=args.seed, budget=args.budget, jobs=args.jobs)
    print(json.dumps(record, indent=2, sort_keys=True))

    if args.check is not None:
        failures = check_regression(record, args.check, args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    path = write_record(record)
    print(f"wrote {path}")
    return 0


def test_fuzz_campaign_throughput(write_output):
    """Pytest entry: small fixed-seed campaign, asserts discovery yield."""
    record = measure(budget=1000)
    write_output(
        "bench_fuzz",
        [
            f"campaign: seed={record['seed']} budget={record['budget']}",
            f"throughput: {record['mutants_per_sec']:.1f} mutants/s "
            f"({record['seconds']:.2f}s)",
            f"baseline cells: {record['baseline_cells']}",
            f"novel cells: {record['novel_cells']} "
            f"({record['novel_per_10k']:.1f} per 10k mutants)",
            f"novel disagreement cells: {record['novel_disagreements']}",
        ],
    )
    assert record["mutants"] == 1000
    # The acceptance bar scaled down: a fixed-seed campaign must keep
    # discovering cells beyond the Tables 4/5 baseline.
    assert record["novel_disagreements"] >= 5


if __name__ == "__main__":
    sys.exit(main())
