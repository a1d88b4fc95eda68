"""Rolling figure renderers: the windowed views must re-emit the same
Figure 2/3/4 numbers the batch analysis computes from full reports."""

import pytest

from repro.analysis.longitudinal import (
    issuance_trend,
    render_rolling_fields,
    render_rolling_windows,
    rolling_field_series,
    rolling_trend,
    rolling_validity_cdfs,
    validity_cdfs,
)
from repro.analysis.fields import FIELD_COLUMNS
from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import Engine, run_corpus
from repro.lint.parallel import ShardOutput
from repro.engine.windows import WindowConfig, WindowedSummary


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=11, scale=0.00001).generate()


@pytest.fixture(scope="module")
def reports(corpus):
    return run_corpus(corpus, jobs=1, output=ShardOutput.REPORTS).reports


@pytest.fixture(scope="module")
def windowed(corpus):
    window = WindowedSummary(WindowConfig(index_window=100))
    Engine().run(corpus.records, jobs=1, window=window)
    return window


class TestRollingTrend:
    def test_matches_the_batch_figure_2_lines(self, corpus, reports, windowed):
        batch = issuance_trend(corpus, reports)
        rolling = rolling_trend(windowed)
        years = sorted(batch.all_unicerts.counts)
        assert rolling.years[0] == years[0]
        assert rolling.years[-1] == years[-1]
        assert rolling.all_unicerts.counts == batch.all_unicerts.counts
        assert rolling.noncompliant.counts == batch.noncompliant.counts

    def test_monthly_epochs_aggregate_to_the_same_years(self, corpus):
        window = WindowedSummary(
            WindowConfig(index_window=100, epoch="month")
        )
        Engine().run(corpus.records, jobs=1, window=window)
        yearly = WindowedSummary(WindowConfig(index_window=100))
        Engine().run(corpus.records, jobs=1, window=yearly)
        assert (
            rolling_trend(window).all_unicerts.counts
            == rolling_trend(yearly).all_unicerts.counts
        )


class TestRollingValidity:
    def test_all_curve_matches_the_batch_figure_3_days(
        self, corpus, reports, windowed
    ):
        batch = validity_cdfs(corpus, reports)["all"]
        rolling = rolling_validity_cdfs(windowed)["all"]
        assert sorted(rolling.days) == sorted(
            float(int(days)) for days in batch.days
        )

    def test_window_curves_partition_the_total(self, windowed):
        curves = rolling_validity_cdfs(windowed)
        window_total = sum(
            len(curve.days)
            for key, curve in curves.items()
            if key != "all"
        )
        assert window_total == len(curves["all"].days)
        assert len(curves["all"].days) == windowed.entries


class TestRollingFields:
    def test_series_covers_every_window_and_column(self, windowed):
        series = rolling_field_series(windowed)
        assert [window_id for window_id, _ in series] == (
            windowed.index_windows()
        )
        for _, cells in series:
            assert sorted(cells) == sorted(FIELD_COLUMNS)

    def test_window_counts_sum_to_the_total_counts(self, windowed):
        series = rolling_field_series(windowed)
        for column in FIELD_COLUMNS:
            unicode_sum = sum(cells[column][0] for _, cells in series)
            assert unicode_sum == windowed.total.unicode_fields.get(column, 0)

    def test_unicode_data_is_present_in_the_corpus(self, windowed):
        assert windowed.total.unicode_fields


class TestRenderers:
    def test_rolling_fields_render(self, windowed):
        lines = render_rolling_fields(rolling_field_series(windowed))
        assert lines[0].startswith("Figure 4 (rolling)")
        assert len(lines) == 2 + len(windowed.index_windows())

    def test_rolling_windows_render(self, windowed):
        lines = render_rolling_windows(windowed)
        assert "Per-window noncompliance" in lines[0]
        assert len(lines) == 2 + len(windowed.index_windows())
        for window_id, line in zip(
            windowed.index_windows(), lines[2:]
        ):
            assert line.startswith(f"w{window_id}")
