"""Benchmark entry point for the repro certificate-lint system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

The system is pure Python under ``src/`` and needs no build.  The run
makes its inputs from ``--seed``, measures one workload (``corpus`` or
``monitor``) for ``--seconds``, checks the outputs, and prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 512, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  Without the sources, or when a
workload cannot run, it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", required=True, choices=("corpus", "monitor")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import END_TO_END, PER_LAYER, Context

    catalogue = PER_LAYER if args.trace else END_TO_END
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    if [(m["name"], m["unit"]) for m in section] != list(catalogue.items()):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)  # keep any spill files inside the checkout
    try:
        import workloads
        from harness import peak_rss_mib

        ctx = Context(args.seed, args.seconds, bool(args.trace), ROOT, workdir)
        outcome = workloads.WORKLOADS[args.workload](ctx)
        if args.trace:
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(outcome.layers)
            values["peak_rss_mib"] = peak_rss_mib()
        else:
            values = outcome.end_to_end()
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in catalogue.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
