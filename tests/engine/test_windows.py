"""Unit behavior of the windowed summary algebra and alert policy."""

import datetime as dt

import pytest

from repro.engine.windows import (
    Alert,
    AlertPolicy,
    WindowConfig,
    WindowedSummary,
    UNKNOWN_EPOCH,
    WindowStats,
)
from repro.lint.runner import CorpusSummary


class TestWindowConfig:
    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            WindowConfig(index_window=0)

    def test_rejects_unknown_epochs(self):
        with pytest.raises(ValueError):
            WindowConfig(epoch="decade")

    def test_epoch_keys(self):
        when = dt.datetime(2019, 3, 14)
        assert WindowConfig(epoch="year").epoch_key(when) == "2019"
        assert WindowConfig(epoch="month").epoch_key(when) == "2019-03"
        assert WindowConfig().epoch_key(None) == UNKNOWN_EPOCH


def _stats(total, noncompliant):
    """A synthetic window with only the headline counters set."""
    stats = WindowStats()
    stats.summary = CorpusSummary(total=total, noncompliant=noncompliant)
    return stats


def _windowed(rates, width=100, per_window=100):
    """Synthetic windows: one per (total-implied) noncompliance rate."""
    windowed = WindowedSummary(WindowConfig(index_window=width))
    for window_id, rate in enumerate(rates):
        windowed.by_index[window_id] = _stats(
            per_window, round(per_window * rate)
        )
    return windowed


class TestWindowQueries:
    def test_epoch_keys_sort_unknown_last(self):
        windowed = WindowedSummary()
        for key in ("2024", UNKNOWN_EPOCH, "2013"):
            windowed.by_epoch[key] = WindowStats()
        assert windowed.epoch_keys() == ["2013", "2024", UNKNOWN_EPOCH]

    def test_completed_windows_need_full_coverage(self):
        windowed = _windowed([0.1, 0.1, 0.1], width=100)
        assert windowed.completed_index_windows(199) == [0]
        assert windowed.completed_index_windows(200) == [0, 1]
        assert windowed.completed_index_windows(10_000) == [0, 1, 2]

    def test_trailing_baseline_merges_up_to_depth_windows(self):
        windowed = _windowed([0.0, 0.1, 0.2, 0.3])
        baseline = windowed.trailing_baseline(3, depth=2)
        assert baseline.total == 200
        assert baseline.summary.noncompliant == 10 + 20
        shallow = windowed.trailing_baseline(1, depth=4)
        assert shallow.total == 100


class TestAlertPolicy:
    def test_quiet_stream_raises_nothing(self):
        windowed = _windowed([0.10, 0.11, 0.09, 0.10, 0.12])
        policy = AlertPolicy(threshold=0.15, depth=4)
        assert policy.evaluate(windowed, 4) == []

    def test_rate_spike_raises_a_noncompliance_alert(self):
        windowed = _windowed([0.10, 0.10, 0.10, 0.10, 0.40])
        policy = AlertPolicy(threshold=0.15, depth=4)
        alerts = policy.evaluate(windowed, 4)
        assert [a.metric for a in alerts] == ["noncompliance_rate"]
        alert = alerts[0]
        assert alert.window_id == 4
        assert alert.value == pytest.approx(0.40)
        assert alert.baseline == pytest.approx(0.10)
        assert alert.delta == pytest.approx(0.30)
        assert "up" in alert.describe()

    def test_small_windows_are_ignored(self):
        windowed = _windowed([0.0, 1.0], per_window=4)
        policy = AlertPolicy(threshold=0.15, depth=4, min_total=16)
        assert policy.evaluate(windowed, 1) == []

    def test_small_baselines_are_ignored(self):
        windowed = WindowedSummary(WindowConfig(index_window=100))
        windowed.by_index[0] = _stats(4, 0)
        windowed.by_index[1] = _stats(100, 40)
        policy = AlertPolicy(threshold=0.15, depth=4, min_total=16)
        assert policy.evaluate(windowed, 1) == []

    def test_type_mix_shift_raises_per_type_alerts(self):
        from repro.lint.framework import NoncomplianceType

        windowed = WindowedSummary(WindowConfig(index_window=100))
        old_mix = CorpusSummary(
            total=100,
            noncompliant=50,
            per_type={NoncomplianceType.INVALID_CHARACTER: 50},
        )
        new_mix = CorpusSummary(
            total=100,
            noncompliant=50,
            per_type={NoncomplianceType.BAD_NORMALIZATION: 50},
        )
        windowed.by_index[0] = WindowStats(summary=old_mix)
        windowed.by_index[1] = WindowStats(summary=new_mix)
        alerts = AlertPolicy(threshold=0.15, depth=4).evaluate(windowed, 1)
        metrics = {a.metric for a in alerts}
        assert (
            f"type_share:{NoncomplianceType.INVALID_CHARACTER.value}"
            in metrics
        )
        assert (
            f"type_share:{NoncomplianceType.BAD_NORMALIZATION.value}"
            in metrics
        )

    def test_alerts_are_plain_values(self):
        alert = Alert(3, "noncompliance_rate", 0.4, 0.1)
        assert alert == Alert(3, "noncompliance_rate", 0.4, 0.1)
        assert alert.delta == pytest.approx(0.3)
