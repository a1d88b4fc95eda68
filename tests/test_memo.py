"""``ProcessMemo`` and the process-wide memos built on it.

The type: an entry cap, one flush when a store finds the memo full,
``on_evict`` once per value that leaves.  The memos: a flood of
distinct keys keeps every memo at or below its cap, answers stay those
of a fresh computation, and a key seen after the flood is cached again
(a full memo keeps caching instead of freezing).
"""

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.lint import compiled
from repro.lint.runner import run_lints
from repro.lint.framework import (
    _INDEX_MEMO,
    _INDEX_MEMO_MAX,
    RFC5280_DATE,
    FunctionLint,
    LintMetadata,
    NoncomplianceType,
    Severity,
    Source,
)
from repro.lint.reference import reference_run_lints
from repro.lint.serialization import report_to_json
from repro.memo import ProcessMemo
from repro.uni.idna import ulabel_to_alabel

from .lint import reference_xn_mask
from .registry_helpers import registered


class TestProcessMemo:
    def test_never_holds_more_than_cap(self):
        memo = ProcessMemo(3)
        for key in range(10):
            memo[key] = key
            assert len(memo) <= 3

    def test_flush_evicts_each_value_once_then_stores(self):
        evicted = []
        memo = ProcessMemo(3, on_evict=evicted.append)
        for key in "abc":
            memo[key] = key.upper()
        memo["d"] = "D"
        assert sorted(evicted) == ["A", "B", "C"]
        assert dict(memo) == {"d": "D"}

    def test_overwriting_a_key_of_a_full_memo_does_not_flush(self):
        evicted = []
        memo = ProcessMemo(2, on_evict=evicted.append)
        memo["a"] = 1
        memo["b"] = 2
        memo["a"] = 3
        assert evicted == []
        assert dict(memo) == {"a": 3, "b": 2}

    def test_clear_runs_on_evict(self):
        evicted = []
        memo = ProcessMemo(8, on_evict=evicted.append)
        memo["x"] = 1
        memo["y"] = 2
        memo.clear()
        assert sorted(evicted) == [1, 2]
        assert len(memo) == 0

    def test_key_stored_after_a_flush_is_a_hit(self):
        memo = ProcessMemo(2)
        for key in range(7):
            memo[key] = key * 10
        assert memo.get(6) == 60
        assert memo[6] == 60


class TestMaskMemoFlood:
    CAP = 8
    MEMOS = ("_STRING_MASKS", "_CHAR_MASKS", "_XN_MASKS")

    @pytest.fixture()
    def install(self, monkeypatch):
        """Swap fresh memos of one cap in for the live mask memos."""

        def install(cap):
            for name in self.MEMOS:
                monkeypatch.setattr(compiled, name, ProcessMemo(cap))

        return install

    def test_flood_stays_bounded_and_exact(self, install):
        count = 4 * self.CAP
        strings = [f"host-{i}.example" for i in range(count)] + [
            f"Ünïcödé {chr(0x4E00 + i)}" for i in range(count)
        ]
        labels = [ulabel_to_alabel(f"bücher{i}") for i in range(count)] + [
            f"xn--{i}zz-" for i in range(count)
        ]
        install(1 << 20)
        fresh = [compiled.scan_mask(text) for text in strings]
        install(self.CAP)
        for text, want in zip(strings, fresh):
            assert compiled.scan_mask(text) == want
            assert len(compiled._STRING_MASKS) <= self.CAP
            assert len(compiled._CHAR_MASKS) <= self.CAP
        for label in labels:
            assert compiled._xn_label_mask(label) == reference_xn_mask.xn_label_mask(label)
            assert len(compiled._XN_MASKS) <= self.CAP
        # Long flushed, the first keys are cached again when they recur.
        assert compiled.scan_mask(strings[0]) == fresh[0]
        assert strings[0] in compiled._STRING_MASKS
        compiled._xn_label_mask(labels[0])
        assert labels[0] in compiled._XN_MASKS


def _planted(name: str) -> FunctionLint:
    return FunctionLint(
        LintMetadata(
            name=name,
            description="",
            citation="",
            source=Source.RFC5280,
            severity=Severity.ERROR,
            nc_type=NoncomplianceType.ILLEGAL_FORMAT,
            effective_date=RFC5280_DATE,
        ),
        lambda cert: True,
        lambda cert: (False, "planted"),
    )


class TestIndexMemoBound:
    def test_registering_lints_keeps_the_index_memo_bounded(self):
        records = CorpusGenerator(seed=5, scale=1 / 400000).generate().records[:3]
        for step in range(2 * _INDEX_MEMO_MAX + 1):
            with registered(_planted(f"e_test_index_memo_{step}")):
                for record in records:
                    cert = record.certificate
                    fast = report_to_json(run_lints(cert, issued_at=record.issued_at), cert)
                    slow = report_to_json(
                        reference_run_lints(cert, issued_at=record.issued_at), cert
                    )
                    assert fast == slow
                    assert f"e_test_index_memo_{step}" in fast
                assert len(_INDEX_MEMO) <= _INDEX_MEMO_MAX
