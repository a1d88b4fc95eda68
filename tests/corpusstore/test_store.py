"""Substrate writer/reader: round-trip, corruption taxonomy, edges.

The substrate is the zero-copy transport under every parallel corpus
run, so its failure modes must be *structured*: a truncated or
bit-flipped file raises :class:`CorpusStoreError` with a stable code,
never contributes garbage records to a summary.
"""

import datetime as dt
import os
import struct
import warnings

import pytest

from repro.corpusstore.errors import CorpusStoreError
from repro.corpusstore.format import MAGIC, decode_issued_at, encode_issued_at, HEADER, INDEX_ENTRY
from repro.corpusstore.reader import CorpusStore
from repro.corpusstore.writer import write_store


PAIRS = [
    (b"\x30\x03\x02\x01\x01", dt.datetime(2024, 3, 1, 12, 30, 45, 123456)),
    (b"", None),
    (b"\xff" * 300, dt.datetime(1969, 12, 31, 23, 59, 59)),
    (b"\x00", dt.datetime(2025, 1, 1)),
]


@pytest.fixture
def store_path(tmp_path):
    return write_store(PAIRS, tmp_path / "corpus.rcs")


class TestRoundTrip:
    def test_issued_at_encoding_is_the_microsecond_count(self):
        epoch = dt.datetime(1970, 1, 1)
        one = dt.timedelta(microseconds=1)
        whens = [
            dt.datetime(1, 1, 1),
            dt.datetime(1969, 12, 31, 23, 59, 59, 999999),
            dt.datetime(2024, 2, 29, 12, 0, 0, 1),
            dt.datetime(9999, 12, 31, 23, 59, 59, 999999),
        ] + [epoch + m * one for m in range(-3_000_001, 3_000_001, 999_983)]
        for when in whens:
            assert encode_issued_at(when) == (when - epoch) // one
            assert decode_issued_at(encode_issued_at(when)) == when
        aware = dt.datetime(
            2020, 1, 2, 3, 4, 5, 6, tzinfo=dt.timezone(dt.timedelta(hours=-7))
        )
        naive = aware.astimezone(dt.timezone.utc).replace(tzinfo=None)
        assert encode_issued_at(aware) == (naive - epoch) // one

    def test_count_and_bytes(self, store_path):
        with CorpusStore(store_path, verify=True) as store:
            assert len(store) == len(PAIRS)
            for i, (der, _issued) in enumerate(PAIRS):
                assert store.der_bytes(i) == der

    def test_issued_at_preserved_to_the_microsecond(self, store_path):
        with CorpusStore(store_path) as store:
            for i, (_der, issued) in enumerate(PAIRS):
                assert store.issued_at(i) == issued

    def test_der_view_is_zero_copy(self, store_path):
        with CorpusStore(store_path) as store:
            view = store.der_view(0)
            assert isinstance(view, memoryview)
            assert bytes(view) == PAIRS[0][0]

    def test_iter_shard_matches_per_record_access(self, store_path):
        with CorpusStore(store_path) as store:
            listed = list(store.iter_shard(1, 4))
            assert listed == [
                (store.der_bytes(i), store.issued_at(i)) for i in (1, 2, 3)
            ]

    def test_record_objects_round_trip(self, tmp_path):
        class _Record:
            def __init__(self, certificate, issued_at=None):
                self.certificate = certificate
                self.issued_at = issued_at

        class _Cert:
            def __init__(self, der):
                self._der = der

            def to_der(self):
                return self._der

        records = [_Record(_Cert(b"\x30\x00"), dt.datetime(2024, 6, 1))]
        path = write_store(records, tmp_path / "records.rcs")
        with CorpusStore(path) as store:
            assert store.der_bytes(0) == b"\x30\x00"
            assert store.issued_at(0) == dt.datetime(2024, 6, 1)


class TestEdges:
    def test_empty_corpus(self, tmp_path):
        path = write_store([], tmp_path / "empty.rcs")
        with CorpusStore(path, verify=True) as store:
            assert len(store) == 0
            assert list(store.iter_shard(0, 0)) == []
            with pytest.raises(CorpusStoreError) as excinfo:
                store.der_bytes(0)
            assert excinfo.value.code == "out_of_range"

    def test_single_record_corpus(self, tmp_path):
        path = write_store([(b"\x30\x00", None)], tmp_path / "one.rcs")
        with CorpusStore(path, verify=True) as store:
            assert len(store) == 1
            assert list(store.iter_shard(0, 1)) == [(b"\x30\x00", None)]

    def test_shard_out_of_range(self, store_path):
        with CorpusStore(store_path) as store:
            with pytest.raises(CorpusStoreError) as excinfo:
                list(store.iter_shard(0, len(PAIRS) + 1))
            assert excinfo.value.code == "out_of_range"

    def test_close_is_idempotent(self, store_path):
        store = CorpusStore(store_path)
        store.close()
        store.close()

    def test_atomic_replace_leaves_no_tmp(self, tmp_path):
        path = write_store(PAIRS, tmp_path / "atomic.rcs")
        assert not path.with_name(path.name + ".tmp").exists()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestLifecycle:
    """Open/close discipline: no leaked fds, structured use-after-close."""

    def test_context_manager_closes(self, store_path):
        with CorpusStore(store_path) as store:
            assert not store.closed
        assert store.closed

    def test_access_after_close_is_structured(self, store_path):
        store = CorpusStore(store_path)
        store.close()
        for access in (
            lambda: store.der_bytes(0),
            lambda: store.der_view(0),
            lambda: store.issued_at(0),
            lambda: list(store.iter_shard(0, 1)),
        ):
            with pytest.raises(CorpusStoreError) as excinfo:
                access()
            assert excinfo.value.code == "closed"

    def test_len_survives_close(self, store_path):
        # Metadata reads stay valid — only mapping access is guarded.
        store = CorpusStore(store_path)
        store.close()
        assert len(store) == len(PAIRS)

    def test_open_failure_does_not_leak_fds(self, store_path):
        # Corrupt the header so open() fails *after* the file and the
        # mapping were acquired; both must be released on the way out.
        data = bytearray(store_path.read_bytes())
        struct.pack_into("<I", data, len(MAGIC), 99)
        store_path.write_bytes(bytes(data))
        before = _open_fds()
        for _ in range(5):
            with pytest.raises(CorpusStoreError):
                CorpusStore(store_path)
        assert _open_fds() == before

    def test_verify_failure_does_not_leak_fds(self, store_path):
        data = bytearray(store_path.read_bytes())
        data[-1] ^= 0xFF
        store_path.write_bytes(bytes(data))
        before = _open_fds()
        for _ in range(5):
            with pytest.raises(CorpusStoreError):
                CorpusStore(store_path, verify=True)
        assert _open_fds() == before

    def test_close_with_live_view_then_release(self, store_path):
        # close() with an exported buffer must not raise; the mapping
        # is reclaimed once the last view is released.
        store = CorpusStore(store_path)
        view = store.der_view(0)
        store.close()
        assert store.closed
        assert bytes(view) == PAIRS[0][0]
        view.release()

    def test_collecting_an_open_store_warns_and_closes_it(self, store_path):
        before = _open_fds()
        store = CorpusStore(store_path)
        with pytest.warns(ResourceWarning, match="unclosed corpus store"):
            store.__del__()
        assert store.closed
        assert _open_fds() == before

    def test_collecting_a_closed_store_is_silent(self, store_path):
        with CorpusStore(store_path) as store:
            pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.__del__()


class TestCorruption:
    """Every byte-level failure maps to a stable structured code."""

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(tmp_path / "nope.rcs")
        assert excinfo.value.code == "unreadable"

    def test_not_a_substrate_file(self, tmp_path):
        path = tmp_path / "garbage.rcs"
        path.write_bytes(b"not a substrate" + b"\x00" * HEADER.size)
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(path)
        assert excinfo.value.code == "bad_magic"

    def test_unknown_version_rejected(self, store_path):
        data = bytearray(store_path.read_bytes())
        struct.pack_into("<I", data, len(MAGIC), 99)
        store_path.write_bytes(bytes(data))
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(store_path)
        assert excinfo.value.code == "bad_version"

    def test_truncated_below_header(self, store_path):
        store_path.write_bytes(store_path.read_bytes()[: HEADER.size - 8])
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(store_path)
        assert excinfo.value.code == "truncated"

    def test_truncated_der_region(self, store_path):
        # Header promises more DER bytes than the file holds.
        store_path.write_bytes(store_path.read_bytes()[:-10])
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(store_path)
        assert excinfo.value.code == "truncated"

    def test_flipped_payload_byte_fails_verify(self, store_path):
        data = bytearray(store_path.read_bytes())
        data[-1] ^= 0xFF
        store_path.write_bytes(bytes(data))
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(store_path, verify=True)
        assert excinfo.value.code == "corrupt_data"

    def test_corrupt_index_entry_detected(self, store_path):
        # Point the first index entry past the DER region; both the
        # random-access and shard-iteration paths must reject it.
        data = bytearray(store_path.read_bytes())
        INDEX_ENTRY.pack_into(data, HEADER.size, 2**40, 100)
        store_path.write_bytes(bytes(data))
        with CorpusStore(store_path) as store:
            with pytest.raises(CorpusStoreError) as excinfo:
                store.der_bytes(0)
            assert excinfo.value.code == "corrupt_index"
            with pytest.raises(CorpusStoreError) as excinfo:
                list(store.iter_shard(0, 1))
            assert excinfo.value.code == "corrupt_index"

    def test_inconsistent_region_offsets(self, store_path):
        # index_off pointing before the header end is structurally
        # impossible; the reader must refuse at open time.
        data = bytearray(store_path.read_bytes())
        struct.pack_into("<Q", data, 24, 3)  # index_off field
        store_path.write_bytes(bytes(data))
        with pytest.raises(CorpusStoreError) as excinfo:
            CorpusStore(store_path)
        assert excinfo.value.code == "corrupt_header"

    def test_oversized_der_rejected_at_write(self, tmp_path):
        class _HugeBytes(bytes):
            def __len__(self):
                return 2**33

        class _Cert:
            def to_der(self):
                return _HugeBytes(b"x")

        class _Record:
            certificate = _Cert()
            issued_at = None

        with pytest.raises(CorpusStoreError) as excinfo:
            write_store([_Record()], tmp_path / "huge.rcs")
        assert excinfo.value.code == "corrupt_index"
