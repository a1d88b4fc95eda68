"""EngineStats / StageTimings: merge algebra, rendering, surfaces.

The per-stage collector must merge worker timings exactly (plain
addition, any grouping), serialize to the ``stages`` block shared by
the service ``/metrics`` and the throughput benchmark record, and
surface through ``repro lint --stats`` / ``repro corpus --stats``.
"""

import datetime as dt

from repro.cli import main
from repro.engine.pipeline import run_corpus
from repro.engine.stats import EngineStats, StageTimings
from repro.lint.compiled import warm_default_plan
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=4004)


def write_cert(tmp_path, name="stats.example.com"):
    cert = (
        CertificateBuilder()
        .subject_cn(name)
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns(name)))
        .sign(KEY)
    )
    path = tmp_path / "cert.pem"
    path.write_text(encode_pem(cert.to_der()))
    return str(path), cert


class _Record:
    """Minimal corpus record stand-in."""

    def __init__(self, certificate, issued_at=None):
        self.certificate = certificate
        self.issued_at = issued_at


class TestStageTimings:
    def test_add_accumulates_both_clocks(self):
        timings = StageTimings()
        timings.add("lint", 0.25, 0.2, 2)
        timings.add("lint", 0.75, 0.3, 3)
        assert timings.wall["lint"] == 1.0
        assert timings.cpu["lint"] == 0.5
        assert timings.items["lint"] == 5

    def test_merge_is_plain_addition(self):
        a = StageTimings(
            wall={"decode": 1.0}, cpu={"decode": 0.9},
            items={"decode": 4}, certs=4, bytes=100,
        )
        b = StageTimings(
            wall={"decode": 0.5, "lint": 2.0}, cpu={"lint": 1.5},
            items={"lint": 4}, certs=4, bytes=60,
        )
        a.merge(b)
        assert a.wall == {"decode": 1.5, "lint": 2.0}
        assert a.cpu == {"decode": 0.9, "lint": 1.5}
        assert a.items == {"decode": 4, "lint": 4}
        assert a.certs == 8
        assert a.bytes == 160

    def test_worker_merge_drops_wall_keeps_cpu(self):
        # N workers' wall clocks overlap; summing them would report up
        # to N× the elapsed time, so distributed merges keep only the
        # additive columns (cpu, items, totals).
        a = StageTimings(wall={"lint": 1.0}, cpu={"lint": 1.0})
        worker = StageTimings(
            wall={"lint": 9.0}, cpu={"lint": 2.0}, items={"lint": 5}, certs=5
        )
        a.merge(worker, worker=True)
        assert a.wall == {"lint": 1.0}
        assert a.cpu == {"lint": 3.0}
        assert a.items == {"lint": 5}
        assert a.certs == 5

    def test_time_context_manager_records(self):
        timings = StageTimings()
        with timings.time("ingest", items=3):
            pass
        assert timings.wall["ingest"] >= 0.0
        assert timings.cpu["ingest"] >= 0.0
        assert timings.items["ingest"] == 3


class TestEngineStatsRendering:
    def test_to_dict_canonical_order_and_shape(self):
        stats = EngineStats()
        stats.add("sink", 0.1, items=1)
        stats.add("ingest", 0.2, items=1)
        stats.add("lint", 0.3, 0.28, items=1)
        stats.add("decode", 0.4, items=1)
        payload = stats.to_dict()
        assert list(payload["stages"]) == ["ingest", "decode", "lint", "sink"]
        assert payload["stages"]["lint"] == {
            "wall_seconds": 0.3,
            "cpu_seconds": 0.28,
            "items": 1,
        }
        assert payload["certs"] == 0
        assert "cache" not in payload
        assert "shards" not in payload

    def test_execute_stage_sorts_after_ingest(self):
        stats = EngineStats()
        stats.add("sink", 0.1)
        stats.add("execute", 0.5)
        stats.add("ingest", 0.2)
        assert list(stats.to_dict()["stages"]) == ["ingest", "execute", "sink"]

    def test_cache_and_shard_gauges_appear_when_recorded(self):
        stats = EngineStats()
        stats.record_cache(hits=2, misses=1)
        stats.record_shards([3, 3, 2], jobs=2)
        payload = stats.to_dict()
        assert payload["cache"] == {"hits": 2, "misses": 1}
        assert payload["shards"] == {"count": 3, "min": 2, "max": 3, "mean": 2.67}
        assert payload["jobs"] == 2

    def test_render_lines_header_and_totals(self):
        stats = EngineStats()
        stats.add("lint", 1.5, 1.4, items=10)
        stats.merge_timings(StageTimings(certs=10, bytes=4200))
        lines = stats.render_lines()
        assert lines[0] == "engine stats:"
        assert any("lint:" in line and "wall" in line and "cpu" in line for line in lines)
        assert any("certs: 10" in line and "bytes: 4200" in line for line in lines)

    def test_merge_timings_folds_worker_record(self):
        stats = EngineStats()
        worker = StageTimings(
            wall={"lint": 2.0}, cpu={"lint": 1.8},
            items={"lint": 7}, certs=7, bytes=70,
        )
        stats.merge_timings(worker)
        assert stats.timings.wall["lint"] == 2.0
        assert stats.timings.certs == 7

    def test_merge_timings_worker_flag_drops_wall(self):
        stats = EngineStats()
        worker = StageTimings(wall={"lint": 2.0}, cpu={"lint": 1.8})
        stats.merge_timings(worker, worker=True)
        assert "lint" not in stats.timings.wall
        assert stats.timings.cpu["lint"] == 1.8


class TestStatsThreadedThroughRuns:
    def test_corpus_run_populates_every_stage(self):
        records = [
            _Record(
                CertificateBuilder()
                .subject_cn(f"run-{i}.example.com")
                .not_before(dt.datetime(2024, 1, 1))
                .add_extension(
                    subject_alt_name(GeneralName.dns(f"run-{i}.example.com"))
                )
                .sign(KEY)
            )
            for i in range(4)
        ]
        # Build the plan first, so no one-time ``compile`` stage shows
        # whichever test ran first in this process.
        warm_default_plan()
        stats = EngineStats()
        run_corpus(records, jobs=1, stats=stats)
        seconds = stats.stage_wall_seconds()
        assert set(seconds) == {"ingest", "decode", "lint", "sink"}
        assert stats.timings.certs == 4
        assert stats.timings.items["lint"] == 4
        assert stats.timings.items["sink"] == 4
        assert sum(stats.shard_sizes) == 4
        assert stats.jobs == 1

    def test_pool_run_splits_wall_and_cpu(self):
        records = [
            _Record(
                CertificateBuilder()
                .subject_cn(f"pool-{i}.example.com")
                .not_before(dt.datetime(2024, 1, 1))
                .add_extension(
                    subject_alt_name(GeneralName.dns(f"pool-{i}.example.com"))
                )
                .sign(KEY)
            )
            for i in range(4)
        ]
        stats = EngineStats()
        run_corpus(records, jobs=2, shards=2, stats=stats)
        wall = stats.stage_wall_seconds()
        cpu = stats.stage_cpu_seconds()
        # Parent wall covers ingest/execute/sink; the workers' own wall
        # never sums into it — their contribution is the cpu column.
        assert "execute" in wall
        assert "decode" not in wall and "lint" not in wall
        assert {"decode", "lint", "sink"} <= set(cpu)
        assert stats.timings.certs == 4
        # The parent's merge of the two shard results adds no items.
        assert stats.timings.items["sink"] == 4


class TestCliStatsFlag:
    def test_lint_stats_on_stderr(self, tmp_path, capsys):
        path, _cert = write_cert(tmp_path)
        assert main(["lint", path, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "engine stats:" in captured.err
        assert "lint:" in captured.err
        # stdout keeps the parity-tested report format untouched.
        assert "engine stats:" not in captured.out

    def test_lint_sink_counts_the_one_certificate(self, tmp_path, capsys):
        path, _cert = write_cert(tmp_path)
        assert main(["lint", path, "--stats"]) == 0
        sink = [line for line in capsys.readouterr().err.splitlines() if "sink:" in line]
        assert len(sink) == 1 and sink[0].endswith("(1 item)")

    def test_lint_without_stats_keeps_stderr_empty(self, tmp_path, capsys):
        path, _cert = write_cert(tmp_path)
        assert main(["lint", path]) == 0
        assert capsys.readouterr().err == ""

    def test_corpus_stats_on_stderr(self, capsys):
        args = ["corpus", "--scale", "0.000005", "--seed", "3", "--stats"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "engine stats:" in captured.err
        assert "shards:" in captured.err
