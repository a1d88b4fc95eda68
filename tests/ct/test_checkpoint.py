"""Checkpoint corruption taxonomy: every damage class is a structured
``CheckpointError`` and the monitor's answer is a clean cold start —
never a half-resumed window."""

import io
import json
import zlib

import pytest

from repro.ct.checkpoint import (
    CheckpointError,
    MonitorCheckpoint,
    load_checkpoint,
    write_checkpoint,
    _canonical,
)
from repro.ct.corpus import CorpusGenerator
from repro.ct.tail import MonitorConfig, TailLog, TailMonitor, drive


@pytest.fixture()
def checkpoint():
    return MonitorCheckpoint(
        position=192,
        tree_size=192,
        root_hash="ab" * 32,
        window={"config": {"index_window": 64, "epoch": "year"}},
        store_digest="cd" * 32,
        alerted_through=1,
    )


class TestRoundTrip:
    def test_write_then_load_preserves_every_field(self, tmp_path, checkpoint):
        path = tmp_path / "monitor.ckpt"
        write_checkpoint(path, checkpoint)
        assert load_checkpoint(path) == checkpoint

    def test_missing_file_is_first_boot_not_an_error(self, tmp_path):
        assert load_checkpoint(tmp_path / "never-written.ckpt") is None

    def test_write_is_atomic_no_tmp_residue(self, tmp_path, checkpoint):
        path = tmp_path / "monitor.ckpt"
        write_checkpoint(path, checkpoint)
        write_checkpoint(path, checkpoint)
        assert [p.name for p in tmp_path.iterdir()] == ["monitor.ckpt"]


class TestTaxonomy:
    def _written(self, tmp_path, checkpoint):
        path = tmp_path / "monitor.ckpt"
        write_checkpoint(path, checkpoint)
        return path

    def test_truncated_file_reports_truncated(self, tmp_path, checkpoint):
        path = self._written(tmp_path, checkpoint)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "truncated"

    def test_non_json_reports_garbled(self, tmp_path):
        path = tmp_path / "monitor.ckpt"
        path.write_text("{this is not json}")
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "garbled"

    def test_wrong_format_marker_reports_garbled(self, tmp_path, checkpoint):
        path = self._written(tmp_path, checkpoint)
        document = json.loads(path.read_text())
        document["format"] = "some-other-program"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "garbled"

    def test_flipped_body_field_fails_the_crc(self, tmp_path, checkpoint):
        path = self._written(tmp_path, checkpoint)
        document = json.loads(path.read_text())
        document["body"]["position"] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "garbled"

    def test_missing_body_field_reports_garbled(self, tmp_path, checkpoint):
        path = self._written(tmp_path, checkpoint)
        document = json.loads(path.read_text())
        del document["body"]["sth"]
        import zlib

        canonical = json.dumps(
            document["body"],
            sort_keys=True,
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode()
        document["crc32"] = zlib.crc32(canonical) & 0xFFFFFFFF
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "garbled"

    def test_future_version_reports_bad_version(self, tmp_path, checkpoint):
        path = self._written(tmp_path, checkpoint)
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "bad_version"


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=17, scale=0.00001).generate()


def _monitor(corpus, tmp_path, **overrides):
    config = MonitorConfig(
        batch_size=64,
        jobs=1,
        index_window=128,
        checkpoint_path=str(tmp_path / "monitor.ckpt"),
        store_dir=str(tmp_path / "segments"),
        **overrides,
    )
    return TailMonitor(TailLog(corpus), config)


class TestMonitorRecovery:
    """The never-half-resumed guarantee, end to end."""

    def test_stale_digest_when_store_diverged_from_checkpoint(
        self, corpus, tmp_path
    ):
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)
        # The store gains a segment the checkpoint never saw (the
        # kill-between-append-and-checkpoint crash shape).
        monitor._writer.append([(b"\x30\x03\x02\x01\x00", None)])
        fresh = _monitor(corpus, tmp_path)
        with pytest.raises(CheckpointError) as excinfo:
            fresh.resume()
        assert excinfo.value.code == "stale_digest"

    def test_window_shape_mismatch_refuses_to_resume(self, corpus, tmp_path):
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)
        reshaped = _monitor(corpus, tmp_path, epoch="month")
        with pytest.raises(CheckpointError) as excinfo:
            reshaped.resume()
        assert excinfo.value.code == "garbled"

    @pytest.mark.parametrize(
        "damage, code",
        [
            (lambda p: p.write_bytes(p.read_bytes()[:40]), "truncated"),
            (lambda p: p.write_text('{"format": "nope"}'), "garbled"),
        ],
    )
    def test_start_recovers_with_a_clean_cold_start(
        self, corpus, tmp_path, damage, code
    ):
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)
        assert monitor.position == 128
        damage(tmp_path / "monitor.ckpt")

        fresh = _monitor(corpus, tmp_path)
        resumed = fresh.start(resume=True)

        assert resumed is False
        assert fresh.recovered == code
        # Pristine consumer: nothing of the damaged run leaks through.
        assert fresh.position == 0
        assert fresh.window.entries == 0
        assert fresh.window.by_index == {}
        assert list((tmp_path / "segments").glob("segment-*.rcs")) == []

    def test_resume_failure_leaves_state_untouched(self, corpus, tmp_path):
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)
        (tmp_path / "monitor.ckpt").write_bytes(b"\x00\x01")

        fresh = _monitor(corpus, tmp_path)
        with pytest.raises(CheckpointError):
            fresh.resume()
        # resume() raised before mutating anything: still a cold state,
        # and the on-disk segments were not reset either.
        assert fresh.position == 0
        assert fresh.window.entries == 0
        assert len(list((tmp_path / "segments").glob("segment-*.rcs"))) == 2

    def test_explicit_cold_start_ignores_a_valid_checkpoint(
        self, corpus, tmp_path
    ):
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)

        fresh = _monitor(corpus, tmp_path)
        assert fresh.start(resume=False) is False
        assert fresh.recovered is None
        assert fresh.position == 0

    def test_monitor_checkpoint_body_is_its_canonical_bytes(self, corpus, tmp_path):
        """The body is written once: the document holds the canonical
        body bytes, and its CRC is taken over exactly those bytes."""
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)
        path = tmp_path / "monitor.ckpt"
        written = path.read_bytes()
        document = json.loads(written.decode("utf-8"))
        canonical = _canonical(document["body"])
        assert b'{"body": ' + canonical + b", " == written[: len(canonical) + 11]
        assert document["crc32"] == zlib.crc32(canonical) & 0xFFFFFFFF
        assert document["body"]["position"] == monitor.position == 128

        checkpoint = load_checkpoint(path)
        assert checkpoint.position == monitor.position
        fresh = _monitor(corpus, tmp_path)
        assert fresh.resume() is True
        assert fresh.position == monitor.position
        assert fresh.window.to_dict() == monitor.window.to_dict()

    def test_checkpoint_in_the_old_layout_still_resumes(self, corpus, tmp_path):
        """A checkpoint whose whole document was re-serialized by
        ``json.dump`` (the layout of earlier writers) loads and resumes."""
        monitor = _monitor(corpus, tmp_path)
        drive(monitor, batches=2)
        path = tmp_path / "monitor.ckpt"
        document = json.loads(path.read_text(encoding="utf-8"))
        buffer = io.StringIO()
        json.dump(document, buffer, sort_keys=True, ensure_ascii=False)
        old_layout = buffer.getvalue().encode("utf-8")
        assert old_layout != path.read_bytes()
        path.write_bytes(old_layout)

        fresh = _monitor(corpus, tmp_path)
        assert fresh.start(resume=True) is True
        assert fresh.recovered is None
        assert fresh.position == monitor.position
        assert fresh.window.to_json() == monitor.window.to_json()
        drive(fresh)
        uninterrupted = _monitor(corpus, tmp_path / "uninterrupted")
        drive(uninterrupted)
        assert fresh.window.to_json() == uninterrupted.window.to_json()
