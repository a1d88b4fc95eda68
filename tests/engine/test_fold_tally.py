"""The windowed fold reads each entry's tally once.

Workers tally every report once: the tally feeds the shard summary and,
when a window asked for it, rides back with the entry's figure facts,
so the parent folds tallies and no report crosses the process boundary.
Folding a tally must equal folding the report it came from.
"""

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.engine.executors import SerialExecutor
from repro.engine.pipeline import Engine
from repro.engine.windows import WindowConfig, WindowedSummary, cert_facts
from repro.lint.runner import run_lints, tally


@pytest.fixture(scope="module")
def records():
    return CorpusGenerator(seed=13, scale=0.00001).generate().records


def test_fold_tally_equals_fold(records):
    by_report = WindowedSummary(WindowConfig(index_window=16))
    by_tally = WindowedSummary(WindowConfig(index_window=16))
    for index, record in enumerate(records):
        report = run_lints(record.certificate, issued_at=record.issued_at)
        facts = cert_facts(record.certificate)
        by_report.fold(index, record.issued_at, report, facts)
        by_tally.fold_tally(index, record.issued_at, tally(report), facts)
    assert by_tally.to_dict() == by_report.to_dict()
    assert by_tally.entries == len(records)


class RecordingExecutor(SerialExecutor):
    """The serial executor, keeping the shard results it returned."""

    def __init__(self):
        self.results = []

    def run(self, tasks):
        results = super().run(tasks)
        self.results.extend(results)
        return results


def test_window_alone_ships_no_reports(records):
    executor = RecordingExecutor()
    window = WindowedSummary(WindowConfig(index_window=16))
    outcome = Engine().run(
        records, shards=3, executor=executor, window=window
    )
    assert outcome.reports is None
    assert [result.reports for result in executor.results] == [None] * 3
    shipped = [entry for result in executor.results for entry in result.facts]
    assert len(shipped) == len(records)

    expected = WindowedSummary(WindowConfig(index_window=16))
    for index, record in enumerate(records):
        report = run_lints(record.certificate, issued_at=record.issued_at)
        expected.fold(index, record.issued_at, report, cert_facts(record.certificate))
    assert window.to_dict() == expected.to_dict()
