"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``lint <file>... [--ignore-effective-dates]`` — lint PEM/DER
  certificates with the 95 Unicert rules and print the findings
  (several files: per-file status on stderr, worst status as exit code).
* ``rules [--new-only] [--type TYPE]`` — list the constraint rules.
* ``corpus [--scale S] [--seed N] [--jobs N]`` — generate a calibrated
  corpus and print the Table 1-style compliance landscape, linting with
  ``N`` worker processes (default: all CPUs; exact for every ``N``).
* ``serve [--port] [--jobs] [--cache-size] [--max-queue]`` — run the
  lint-as-a-service daemon (:mod:`repro.service`).
* ``differential`` — print the derived Table 4/5 parser matrices.
"""

from __future__ import annotations

import argparse
import sys


def _lint_one_file(path: str, args: argparse.Namespace, engine) -> int:
    """Lint one file (or stdin) through the staged engine; returns the
    per-file exit status (0 compliant, 1 findings, 2 unreadable or
    unparseable).  Input is sniffed like the service's: PEM, raw DER, or
    base64 of either, with the shared error taxonomy."""
    from .engine.ingest import IngestError, read_path, sniff_certificate_bytes
    from .lint.parallel import ShardOutput, unparseable_message

    try:
        source = read_path(path)
    except IngestError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2
    try:
        with engine.stats.time("ingest"):
            der = sniff_certificate_bytes(source.data)
    except IngestError as exc:
        print(f"error: {unparseable_message(exc)}", file=sys.stderr)
        return 2
    outcome = engine.run(
        [(der, None)],
        output=ShardOutput.JSON if args.json else ShardOutput.TEXT,
        respect_effective_dates=not args.ignore_effective_dates,
    )
    if outcome.failures:
        ((_index, message),) = outcome.failures
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(outcome.reports[0])
    return 1 if outcome.summary.noncompliant else 0


_LINT_STATUS_WORDS = {0: "compliant", 1: "noncompliant", 2: "error"}


def _print_engine_stats(stats) -> None:
    """Emit the per-stage breakdown on stderr (stdout stays parity-clean)."""
    print("\n".join(stats.render_lines()), file=sys.stderr)


def _cmd_lint(args: argparse.Namespace) -> int:
    # Single file keeps the historical output byte-for-byte (the service
    # parity tests compare against it); multiple files add a per-file
    # header and a status summary on stderr, and exit with the worst
    # per-file status (2 = unreadable dominates 1 = findings).
    from .engine.pipeline import Engine

    engine = Engine()
    if len(args.files) == 1:
        status = _lint_one_file(args.files[0], args, engine)
        if args.stats:
            _print_engine_stats(engine.stats)
        return status
    statuses: list[tuple[str, int]] = []
    for index, path in enumerate(args.files):
        if not args.json:
            if index:
                print()
            print(f"== {path} ==")
        statuses.append((path, _lint_one_file(path, args, engine)))
    for path, status in statuses:
        print(
            f"{path}: {_LINT_STATUS_WORDS[status]} ({status})", file=sys.stderr
        )
    if args.stats:
        _print_engine_stats(engine.stats)
    return max(status for _, status in statuses)


def _cmd_rules(args: argparse.Namespace) -> int:
    from .lint.constraints import CONSTRAINT_RULES

    shown = 0
    for rule in CONSTRAINT_RULES:
        if args.new_only and not rule.new:
            continue
        if args.type and rule.nc_type.value != args.type:
            continue
        marker = "NEW" if rule.new else "   "
        print(f"{rule.rule_id} {marker} [{rule.requirement_level:6}] {rule.lint_name}")
        if args.verbose:
            print(f"      field: {rule.field}")
            print(f"      structures: {rule.structures}")
            print(f"      source: {rule.source_document}")
            print(f"      requirement: {rule.requirement}")
        shown += 1
    print(f"\n{shown} rule(s)")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .analysis.compliance import build_table1, lint_corpus, top_lints
    from .ct.corpus import CorpusGenerator
    from .lint.framework import NoncomplianceType

    from .engine.stats import EngineStats

    corpus = CorpusGenerator(seed=args.seed, scale=args.scale).generate()
    if args.export:
        from .ct.dataset import export_corpus

        root = export_corpus(corpus, args.export)
        print(f"exported corpus to {root}")
    if args.store:
        path = corpus.to_store(args.store)
        print(f"wrote corpus substrate to {path}")
    print(f"generated {len(corpus.records)} Unicerts "
          f"({len(corpus.by_issuer())} issuer organizations)")
    # The engine pipeline is exact, so the printed landscape below is
    # byte-identical for every --jobs value (tested; do not print the
    # job count itself here, or that guarantee breaks across machines).
    stats = EngineStats()
    reports = lint_corpus(corpus, jobs=args.jobs, stats=stats)
    table = build_table1(corpus, reports)
    print(f"noncompliant: {table.nc_certs} ({table.nc_rate:.2%})")
    print(f"trusted share: {table.trusted_share:.1%}")
    for nc_type in NoncomplianceType:
        row = table.rows[nc_type]
        print(f"  {nc_type.value:<22} {row.nc_certs:>6}")
    print("top lints:")
    for name, count in top_lints(reports, count=args.top):
        print(f"  {count:>6}  {name}")
    if args.stats:
        _print_engine_stats(stats)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .analysis.longitudinal import (
        render_rolling_fields,
        render_rolling_windows,
        rolling_field_series,
        rolling_trend,
        rolling_validity_cdfs,
    )
    from .analysis.render import render_cdf, render_trend
    from .ct.corpus import CorpusGenerator
    from .ct.tail import MonitorConfig, TailLog, TailMonitor, drive
    from .engine.pipeline import Engine
    from .engine.stats import EngineStats

    corpus = CorpusGenerator(seed=args.seed, scale=args.scale).generate()
    log = TailLog(corpus)
    config = MonitorConfig(
        batch_size=args.batch_size,
        jobs=args.jobs,
        index_window=args.index_window,
        epoch=args.epoch,
        checkpoint_path=args.checkpoint,
        store_dir=args.store_dir,
        alert_threshold=args.alert_threshold,
        baseline_depth=args.baseline_depth,
        alert_min_total=args.alert_min_total,
    )
    stats = EngineStats()
    monitor = TailMonitor(
        log,
        config,
        engine=Engine(stats),
        on_alert=lambda alert: print(f"ALERT {alert.describe()}"),
    )
    resumed = monitor.start(resume=args.resume)
    if monitor.recovered is not None:
        print(
            f"checkpoint unusable ({monitor.recovered}); cold start",
            file=sys.stderr,
        )
    if resumed:
        print(f"resumed from checkpoint at position {monitor.position}")
    outcomes = drive(monitor, batches=args.batches)
    for number, outcome in enumerate(outcomes, 1):
        print(
            f"batch {number}: entries [{outcome.start}, {outcome.stop}) "
            f"nc {outcome.summary.noncompliant}/{outcome.summary.total}"
        )
    total = monitor.window.total.summary
    rate = total.noncompliant / total.total if total.total else 0.0
    print(
        f"tail position {monitor.position}: {total.total} entries, "
        f"{total.noncompliant} noncompliant ({rate:.2%})"
    )
    for line in render_rolling_windows(monitor.window):
        print(line)
    for line in render_trend(rolling_trend(monitor.window)):
        print(line)
    for line in render_cdf(rolling_validity_cdfs(monitor.window), keys=("all",)):
        print(line)
    for line in render_rolling_fields(rolling_field_series(monitor.window)):
        print(line)
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            handle.write(monitor.window.to_json())
            handle.write("\n")
        print(f"wrote windowed summary to {args.summary_json}")
    if args.stats:
        _print_engine_stats(stats)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import ServiceConfig, run_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_size=args.cache_size,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_delay=args.batch_delay_ms / 1e3,
        request_timeout=args.timeout,
    )
    try:
        asyncio.run(run_server(config, announce=print))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


def _cmd_differential(args: argparse.Namespace) -> int:
    from .tlslibs.differential import (
        TABLE4_SCENARIOS,
        derive_charcheck_report,
        derive_decoding_matrix,
    )
    from .tlslibs.profiles import ALL_PROFILES

    libraries = [p.name for p in ALL_PROFILES]
    matrix = derive_decoding_matrix(ALL_PROFILES)
    print("decoding matrix (Table 4):")
    for label, _tag, _context in TABLE4_SCENARIOS:
        cells = " ".join(
            f"{lib.split()[0][:8]}={matrix.cell(label, lib).practice.symbol}"
            for lib in libraries
        )
        print(f"  {label:<26} {cells}")
    report = derive_charcheck_report(ALL_PROFILES)
    print("character checks (Table 5):")
    for row in sorted({key[0] for key in report.cells}):
        cells = " ".join(
            f"{lib.split()[0][:8]}={report.cell(row, lib)}" for lib in libraries
        )
        print(f"  {row:<30} {cells}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .engine.stats import EngineStats
    from .fuzz.campaign import FuzzConfig, run_fuzz_campaign
    from .fuzz.witness import replay_witnesses

    if args.replay:
        if not args.witness_dir:
            print("error: --replay requires --witness-dir", file=sys.stderr)
            return 2
        results = replay_witnesses(args.witness_dir)
        failures = [r for r in results if not r.ok]
        for result in results:
            status = "ok" if result.ok else "FAIL"
            print(f"{result.witness.filename}: {status}")
            for problem in result.problems:
                print(f"  {problem}", file=sys.stderr)
        print(f"replayed {len(results)} witness(es), {len(failures)} failure(s)")
        return 1 if failures else 0

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        batch=args.batch,
        max_ops=args.max_ops,
        witness_dir=args.witness_dir,
        max_witnesses=args.max_witnesses,
    )
    stats = EngineStats()
    result = run_fuzz_campaign(config, stats=stats)
    # Everything below is deterministic for a (seed, budget, max-ops)
    # triple — identical at every --jobs value, like `repro corpus`.
    print(f"campaign seed={config.seed} budget={config.budget} "
          f"max-ops={config.max_ops}")
    print(f"mutants evaluated: {result.mutants}")
    print(f"baseline cells (Tables 4/5 + seeds): {result.baseline_cells}")
    print(f"novel cells: {result.novel_cells} "
          f"({result.novel_per_10k:.1f} per 10k mutants)")
    print(f"novel disagreement cells: {result.novel_disagreements}")
    if config.witness_dir is not None:
        print(f"witnesses written: {len(result.witness_paths)} "
              f"-> {config.witness_dir}")
    else:
        print(f"witnesses minimized: {len(result.witnesses)} (not written; "
              "pass --witness-dir to persist)")
    if args.stats:
        _print_engine_stats(stats)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Unicert compliance toolkit (IMC 2025 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint one or more PEM/DER certificates")
    lint.add_argument(
        "files",
        nargs="+",
        metavar="file",
        help="path(s) to certificates, or '-' for stdin; with several "
        "files, per-file statuses go to stderr and the exit code is the "
        "worst per-file status",
    )
    lint.add_argument("--ignore-effective-dates", action="store_true")
    lint.add_argument("--json", action="store_true", help="emit a JSON report")
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's per-stage timing breakdown on stderr",
    )
    lint.set_defaults(func=_cmd_lint)

    rules = sub.add_parser("rules", help="list the 95 constraint rules")
    rules.add_argument("--new-only", action="store_true")
    rules.add_argument("--type", help="filter by noncompliance type name")
    rules.add_argument("-v", "--verbose", action="store_true")
    rules.set_defaults(func=_cmd_rules)

    corpus = sub.add_parser("corpus", help="generate + lint a calibrated corpus")
    corpus.add_argument("--scale", type=float, default=1 / 10000)
    corpus.add_argument("--seed", type=int, default=2025)
    corpus.add_argument("--top", type=int, default=10)
    corpus.add_argument("--export", help="write the corpus dataset to a directory")
    corpus.add_argument(
        "--store",
        help="write the corpus to a memory-mapped substrate file "
        "(the zero-copy form parallel lint runs dispatch from)",
    )
    corpus.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="lint worker processes (default: all usable CPUs; "
        "output is identical for every value)",
    )
    corpus.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's per-stage timing breakdown on stderr",
    )
    corpus.set_defaults(func=_cmd_corpus)

    monitor = sub.add_parser(
        "monitor",
        help="tail a simulated CT log incrementally (windowed, resumable)",
    )
    monitor.add_argument("--scale", type=float, default=1 / 10000)
    monitor.add_argument("--seed", type=int, default=2025)
    monitor.add_argument(
        "--batches",
        type=int,
        default=None,
        help="stop after this many polled batches (default: drain the log)",
    )
    monitor.add_argument(
        "--batch-size", type=int, default=256,
        help="entries per get-entries poll",
    )
    monitor.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="lint worker processes per batch (output is identical "
        "for every value)",
    )
    monitor.add_argument(
        "--index-window", type=int, default=1024,
        help="tumbling window width in log entries",
    )
    monitor.add_argument(
        "--epoch", choices=("year", "month"), default="year",
        help="rolling window granularity over issued-at timestamps",
    )
    monitor.add_argument(
        "--checkpoint",
        help="durable checkpoint path (written atomically after every "
        "batch; pair with --resume to survive kills)",
    )
    monitor.add_argument(
        "--store-dir",
        help="append-only segment store directory for arriving DER",
    )
    monitor.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint when one is readable "
        "(damaged checkpoints cold-start cleanly)",
    )
    monitor.add_argument(
        "--alert-threshold", type=float, default=0.15,
        help="absolute share shift that raises a window alert",
    )
    monitor.add_argument(
        "--baseline-depth", type=int, default=4,
        help="trailing windows merged into the alert baseline",
    )
    monitor.add_argument(
        "--alert-min-total", type=int, default=16,
        help="skip alerting on windows/baselines smaller than this",
    )
    monitor.add_argument(
        "--summary-json",
        help="write the final windowed summary as canonical JSON "
        "(the kill/resume byte-identity comparison form)",
    )
    monitor.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's per-stage timing breakdown on stderr",
    )
    monitor.set_defaults(func=_cmd_monitor)

    serve = sub.add_parser(
        "serve", help="run the lint-as-a-service daemon (JSON over HTTP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8750, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="lint worker processes (default: os.cpu_count())",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256,
        help="admission bound: in-flight lints before 429 backpressure",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="certificates coalesced per worker dispatch",
    )
    serve.add_argument(
        "--batch-delay-ms", type=float, default=2.0,
        help="micro-batch straggler wait in milliseconds",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request lint deadline in seconds (504 past it)",
    )
    serve.set_defaults(func=_cmd_serve)

    diff = sub.add_parser("differential", help="derive the parser matrices")
    diff.set_defaults(func=_cmd_differential)

    fuzz = sub.add_parser(
        "fuzz",
        help="run a coverage-guided differential fuzzing campaign "
        "over the nine parser models",
    )
    fuzz.add_argument(
        "--seed", type=int, default=2025, help="campaign RNG seed"
    )
    fuzz.add_argument(
        "--budget", type=int, default=10_000, help="mutants to evaluate"
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="evaluation worker processes (default: inline; witness "
        "corpus is byte-identical for every value)",
    )
    fuzz.add_argument(
        "--batch", type=int, default=250, help="mutants per evaluation batch"
    )
    fuzz.add_argument(
        "--max-ops", type=int, default=3,
        help="maximum stacked mutations per mutant",
    )
    fuzz.add_argument(
        "--witness-dir",
        default=None,
        help="directory for minimized witness files "
        "(also the --replay source)",
    )
    fuzz.add_argument(
        "--max-witnesses", type=int, default=None,
        help="cap on minimized witnesses per campaign",
    )
    fuzz.add_argument(
        "--replay",
        action="store_true",
        help="replay the committed witness corpus instead of fuzzing; "
        "exits 1 if any recorded disagreement fails to reproduce",
    )
    fuzz.add_argument(
        "--stats",
        action="store_true",
        help="print the campaign's per-stage timing breakdown on stderr",
    )
    fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments and dispatch to a subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
