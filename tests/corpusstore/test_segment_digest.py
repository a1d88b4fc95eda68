"""The segment writer's running chain digest.

``SegmentWriter.digest`` is a running hash of the chain's header facts,
so a monitor checkpoint costs O(1) in the chain length.  It must equal
:func:`store_digest` over the files on disk after appends, a reset and
a reopen, and it must open no segment.  A monitor's resume still reads
the chain on disk, so a segment dropped after the writer was built is
caught.
"""

import datetime as dt

import pytest

from repro.corpusstore.segments import SegmentWriter, list_segments, store_digest
from repro.corpusstore import segments as segments_module
from repro.ct.checkpoint import CheckpointError
from repro.ct.corpus import CorpusGenerator
from repro.ct.tail import MonitorConfig, TailLog, TailMonitor, drive

ISSUED = dt.datetime(2021, 3, 1)


def _pairs(start, stop):
    return [(bytes([0x30, 3, i & 0xFF, 0, 1]), ISSUED) for i in range(start, stop)]


def test_running_digest_tracks_the_chain_on_disk(tmp_path):
    directory = tmp_path / "chain"
    writer = SegmentWriter(directory)
    assert writer.digest() == store_digest(directory)
    for start in range(0, 30, 10):
        writer.append(_pairs(start, start + 10))
        assert writer.digest() == store_digest(directory)
    writer.reset()
    assert writer.digest() == store_digest(directory)
    writer.append(_pairs(0, 5))
    writer.append(_pairs(5, 7))
    reopened = SegmentWriter(directory)
    assert reopened.digest() == writer.digest() == store_digest(directory)
    reopened.append(_pairs(7, 9))
    assert reopened.digest() == store_digest(directory)


def test_digest_opens_no_segment(tmp_path, monkeypatch):
    writer = SegmentWriter(tmp_path / "chain")
    for start in range(0, 40, 10):
        writer.append(_pairs(start, start + 10))
    opened = []
    original = segments_module.CorpusStore

    def counting(*args, **kwargs):
        opened.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(segments_module, "CorpusStore", counting)
    writer.digest()
    writer.append(_pairs(40, 50))
    writer.digest()
    assert opened == []
    store_digest(tmp_path / "chain")
    assert len(opened) == 5


def test_resume_compares_against_the_chain_on_disk(tmp_path):
    corpus = CorpusGenerator(seed=17, scale=0.00001).generate()
    config = MonitorConfig(
        batch_size=32,
        jobs=1,
        checkpoint_path=str(tmp_path / "monitor.ckpt"),
        store_dir=str(tmp_path / "segments"),
    )
    drive(TailMonitor(TailLog(corpus), config), batches=3)
    resumed = TailMonitor(TailLog(corpus), config)
    list_segments(config.store_dir)[-1].unlink()  # after the writer read the chain
    with pytest.raises(CheckpointError) as excinfo:
        resumed.resume()
    assert excinfo.value.code == "stale_digest"
