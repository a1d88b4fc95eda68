"""CT-tail monitor throughput: sustained fold rate, poll latency, resume cost.

Drives the incremental engine the way a long-running deployment would:
a :class:`~repro.ct.tail.TailLog` publishes get-entries batches from a
seeded corpus and a checkpointed :class:`~repro.ct.tail.TailMonitor` polls,
verifies, lints, persists, and checkpoints every batch.  Three numbers
describe the streaming shape:

* ``entries_per_sec`` — sustained fold rate over the whole tail
  (verification + lint + segment append + checkpoint, everything a
  production poll pays);
* ``batch_seconds`` p50/p99 — per-poll latency distribution, the
  number an operator alarms on;
* ``resume`` — the cost of coming back from a kill: loading the
  checkpoint, digest-checking the segment store, and rebuilding the
  windowed state, measured against re-linting from entry zero.

Every run asserts the monitor's grand total is byte-identical to the
one-shot batch run over the same records, and that a kill+resume
split reproduces the uninterrupted window byte for byte — the same
equivalences the test suite proves, re-checked on every benchmark run
so the committed record can't drift from a broken engine.

CLI::

    PYTHONPATH=src python benchmarks/bench_monitor.py \
        --scale 0.0001 --batch-size 256 --jobs 1
    # regression gate against the committed record (CI monitor-smoke):
    ... --check benchmarks/output/BENCH_monitor.json --tolerance 0.40
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

from repro.ct.corpus import CorpusGenerator
from repro.ct.tail import MonitorConfig, TailLog, TailMonitor
from repro.engine.pipeline import run_corpus
from repro.lint.serialization import summary_to_json

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_MONITOR_SCALE", 1 / 10000))
DEFAULT_SEED = int(os.environ.get("REPRO_BENCH_SEED", 2025))
DEFAULT_BATCH = int(os.environ.get("REPRO_BENCH_MONITOR_BATCH", 256))
DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_MONITOR_JOBS", 1))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
RECORD_PATH = OUTPUT_DIR / "BENCH_monitor.json"


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _config(workdir: pathlib.Path, batch_size: int, jobs: int) -> MonitorConfig:
    return MonitorConfig(
        batch_size=batch_size,
        jobs=jobs,
        index_window=batch_size * 2,
        checkpoint_path=str(workdir / "monitor.ckpt"),
        store_dir=str(workdir / "segments"),
    )


def _timed_tail(corpus, workdir, batch_size, jobs):
    """Tail the whole corpus, timing every poll; returns (monitor, laps)."""
    monitor = TailMonitor(TailLog(corpus), _config(workdir, batch_size, jobs))
    laps: list[float] = []
    while True:
        while monitor.log.size <= monitor.position:
            if monitor.log.advance(batch_size) == 0:
                return monitor, laps
        start = time.perf_counter()
        outcome = monitor.poll()
        laps.append(time.perf_counter() - start)
        if outcome is None:
            return monitor, laps


def measure(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    batch_size: int = DEFAULT_BATCH,
    jobs: int = DEFAULT_JOBS,
) -> dict:
    """Measure one full tail plus a kill/resume split; returns the record."""
    corpus = CorpusGenerator(seed=seed, scale=scale).generate()
    total = len(corpus.records)

    one_shot = summary_to_json(run_corpus(corpus, jobs=1).summary)

    with tempfile.TemporaryDirectory(prefix="bench-monitor-") as tmp:
        tmp = pathlib.Path(tmp)

        monitor, laps = _timed_tail(corpus, tmp / "reference", batch_size, jobs)
        tail_seconds = sum(laps)
        assert monitor.position == total
        assert summary_to_json(monitor.window.total.summary) == one_shot, (
            "tail grand total diverged from the one-shot batch run"
        )
        reference_json = monitor.window.to_json()

        # Kill after three batches, then resume in a "new process":
        # a fresh log (the deterministic stream re-derives the tree)
        # and a fresh monitor restoring from the checkpoint.
        killed = TailMonitor(
            TailLog(corpus), _config(tmp / "killed", batch_size, jobs)
        )
        kill_batches = min(3, max(1, total // batch_size))
        from repro.ct.tail import drive

        drive(killed, batches=kill_batches)
        killed_position = killed.position

        resume_start = time.perf_counter()
        resumed = TailMonitor(
            TailLog(corpus), _config(tmp / "killed", batch_size, jobs)
        )
        restored = resumed.start(resume=True)
        resume_seconds = time.perf_counter() - resume_start
        assert restored, "monitor failed to resume from its own checkpoint"
        assert resumed.position == killed_position
        drive(resumed)
        assert resumed.window.to_json() == reference_json, (
            "kill+resume window diverged from the uninterrupted run"
        )

    relint_seconds = (
        tail_seconds * (killed_position / total) if total else 0.0
    )
    return {
        "bench": "monitor",
        "entries": total,
        "scale": scale,
        "seed": seed,
        "batch_size": batch_size,
        "jobs": jobs,
        "batches": len(laps),
        "tail_seconds": round(tail_seconds, 3),
        "entries_per_sec": round(total / tail_seconds, 1) if tail_seconds else 0.0,
        "batch_seconds": {
            "p50": round(_percentile(laps, 0.50), 4),
            "p99": round(_percentile(laps, 0.99), 4),
            "max": round(max(laps), 4),
        },
        "resume": {
            "path": "checkpoint load + store digest + window rebuild",
            "at_position": killed_position,
            "seconds": round(resume_seconds, 4),
            #: What the same position would cost to re-lint from entry
            #: zero (pro-rated from the measured tail) — the work the
            #: checkpoint saves.
            "relint_equivalent_seconds": round(relint_seconds, 3),
        },
        "tail_matches_one_shot": True,
        "kill_resume_byte_identical": True,
    }


def write_record(record: dict) -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


def check_regression(
    record: dict, committed_path: pathlib.Path, tolerance: float
) -> list[str]:
    """Compare a fresh record against a committed one.

    The gate is on sustained entries/sec — the headline streaming
    number — with ``tolerance`` headroom for host variance, plus the
    two byte-identity flags, which get no tolerance at all.
    """
    committed = json.loads(committed_path.read_text())
    failures: list[str] = []
    baseline = committed["entries_per_sec"]
    floor = baseline * (1.0 - tolerance)
    fresh = record["entries_per_sec"]
    if fresh < floor:
        failures.append(
            f"monitor throughput regressed: {fresh:.1f} entries/sec vs "
            f"committed {baseline:.1f} (floor {floor:.1f} at "
            f"{tolerance:.0%} tolerance)"
        )
    if not record["tail_matches_one_shot"]:
        failures.append("tail total no longer matches the one-shot run")
    if not record["kill_resume_byte_identical"]:
        failures.append("kill+resume no longer byte-identical")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="RECORD",
        help="compare against a committed BENCH_monitor.json instead of "
        "overwriting it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.40,
        help="allowed entries/sec regression fraction for --check "
        "(default 0.40)",
    )
    args = parser.parse_args(argv)

    record = measure(
        scale=args.scale,
        seed=args.seed,
        batch_size=args.batch_size,
        jobs=args.jobs,
    )
    print(json.dumps(record, indent=2, sort_keys=True))

    if args.check is not None:
        failures = check_regression(record, args.check, args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    path = write_record(record)
    print(f"wrote {path}")
    return 0


def test_monitor_throughput(write_output):
    """Pytest entry: smaller tail, asserts both equivalence guarantees."""
    record = measure(scale=1 / 20000, batch_size=64)
    write_output(
        "bench_monitor",
        [
            f"tail: {record['entries']} entries in {record['batches']} "
            f"batches of {record['batch_size']} (seed={record['seed']}, "
            f"scale={record['scale']:g}, jobs={record['jobs']})",
            f"sustained: {record['entries_per_sec']:10.1f} entries/s "
            f"({record['tail_seconds']:.2f}s total poll time)",
            f"batch latency: p50 {record['batch_seconds']['p50']*1000:.1f}ms  "
            f"p99 {record['batch_seconds']['p99']*1000:.1f}ms",
            f"resume at entry {record['resume']['at_position']}: "
            f"{record['resume']['seconds']*1000:.1f}ms vs "
            f"{record['resume']['relint_equivalent_seconds']:.2f}s re-lint",
            "tail total byte-identical to one-shot: yes",
            "kill+resume byte-identical to uninterrupted: yes",
        ],
    )
    assert record["tail_matches_one_shot"]
    assert record["kill_resume_byte_identical"]
    # The checkpoint must beat re-linting the consumed prefix — that is
    # its entire reason to exist.
    assert (
        record["resume"]["seconds"]
        < record["resume"]["relint_equivalent_seconds"]
    ), "resuming from checkpoint was slower than re-linting from zero"


if __name__ == "__main__":
    sys.exit(main())
