"""Append-only segment chains: atomic appends, chained reads across
segment boundaries, gap detection, and the header-only chain digest."""

import datetime as dt

import pytest

from repro.corpusstore.errors import CorpusStoreError
from repro.corpusstore.segments import (
    SegmentedCorpusStore,
    SegmentWriter,
    list_segments,
    segment_name,
    store_digest,
)

ISSUED = dt.datetime(2020, 6, 1, 12, 0, 0)


def _pairs(start, stop):
    return [
        (bytes([0x30, 4, i & 0xFF, (i >> 8) & 0xFF, 0, 1]), ISSUED + dt.timedelta(days=i))
        for i in range(start, stop)
    ]


@pytest.fixture()
def chain(tmp_path):
    writer = SegmentWriter(tmp_path / "chain")
    for start in range(0, 400, 100):
        writer.append(_pairs(start, start + 100))
    return tmp_path / "chain", writer


class TestWriter:
    def test_segments_are_named_and_ordered(self, chain):
        directory, writer = chain
        assert writer.segments == 4
        assert [p.name for p in list_segments(directory)] == [
            segment_name(n) for n in range(4)
        ]

    def test_writer_resumes_numbering_from_disk(self, chain):
        directory, _ = chain
        writer = SegmentWriter(directory)
        assert writer.segments == 4
        path = writer.append(_pairs(400, 410))
        assert path.name == segment_name(4)

    def test_reset_drops_the_whole_chain(self, chain):
        directory, writer = chain
        (directory / "segment-000002.rcs.tmp").write_bytes(b"partial")
        writer.reset()
        assert writer.segments == 0
        assert list_segments(directory) == []
        assert list(directory.iterdir()) == []


class TestReader:
    def test_chain_reads_as_one_logical_store(self, chain):
        directory, _ = chain
        reference = _pairs(0, 400)
        with SegmentedCorpusStore(directory) as store:
            assert len(store) == 400
            assert store.segments == 4
            for i in (0, 99, 100, 250, 399):
                assert store.der_bytes(i) == reference[i][0]
                assert bytes(store.der_view(i)) == reference[i][0]
                assert store.issued_at(i) == reference[i][1]

    def test_iter_shard_crosses_segment_boundaries(self, chain):
        directory, _ = chain
        reference = _pairs(0, 400)
        with SegmentedCorpusStore(directory) as store:
            assert list(store.iter_shard(50, 250)) == reference[50:250]
            assert list(store.iter_shard(0, 400)) == reference
            assert list(store.iter_shard(100, 100)) == []

    def test_out_of_range_is_structured(self, chain):
        directory, _ = chain
        with SegmentedCorpusStore(directory) as store:
            with pytest.raises(CorpusStoreError) as excinfo:
                store.der_bytes(400)
            assert excinfo.value.code == "out_of_range"
            with pytest.raises(CorpusStoreError) as excinfo:
                list(store.iter_shard(0, 401))
            assert excinfo.value.code == "out_of_range"

    def test_verify_mode_opens_a_healthy_chain(self, chain):
        directory, _ = chain
        with SegmentedCorpusStore(directory, verify=True) as store:
            assert len(store) == 400


class TestGaps:
    def test_missing_middle_segment_is_a_gap(self, chain):
        directory, _ = chain
        (directory / segment_name(1)).unlink()
        with pytest.raises(CorpusStoreError) as excinfo:
            list_segments(directory)
        assert excinfo.value.code == "segment_gap"
        with pytest.raises(CorpusStoreError):
            SegmentedCorpusStore(directory)

    def test_tmp_files_are_invisible_to_the_chain(self, chain):
        directory, _ = chain
        (directory / "segment-000004.rcs.tmp").write_bytes(b"partial append")
        assert len(list_segments(directory)) == 4
        with SegmentedCorpusStore(directory) as store:
            assert len(store) == 400


class TestDigest:
    def test_writer_and_reader_agree(self, chain):
        directory, writer = chain
        with SegmentedCorpusStore(directory) as store:
            assert store.digest() == writer.digest()
        assert store_digest(directory) == writer.digest()

    def test_digest_changes_on_append(self, chain):
        directory, writer = chain
        before = writer.digest()
        writer.append(_pairs(400, 410))
        assert writer.digest() != before

    def test_digest_changes_on_rewritten_segment(self, chain):
        directory, writer = chain
        before = writer.digest()
        from repro.corpusstore.writer import write_store

        write_store(_pairs(500, 600), directory / segment_name(3))
        assert store_digest(directory) != before

    def test_empty_chain_digest_is_a_stable_constant(self, tmp_path):
        assert store_digest(tmp_path / "nowhere") == store_digest(
            tmp_path / "elsewhere"
        )
