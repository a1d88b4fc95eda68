"""Figure 2 (issuance trend) and Figure 3 (validity CDF) computations.

Two input shapes feed these figures:

* the one-shot batch shape — a :class:`Corpus` zipped with its lint
  reports (:func:`issuance_trend`, :func:`validity_cdfs`);
* the incremental shape — a
  :class:`~repro.engine.windows.WindowedSummary` built by the tail
  monitor, re-emitted as per-window series (the ``rolling_*``
  functions and their renderers below).  The rolling views consume
  only the windowed aggregate, so a monitor can render them at any
  poll without revisiting a single certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ct.corpus import Corpus, TrustStatus
from ..engine.windows import FIELD_COLUMNS
from ..lint.runner import CertificateReport


@dataclass
class TrendSeries:
    """Per-year counts for one Figure 2 line."""

    label: str
    counts: dict[int, int] = field(default_factory=dict)

    def add(self, year: int) -> None:
        self.counts[year] = self.counts.get(year, 0) + 1

    def series(self, years: list[int]) -> list[int]:
        return [self.counts.get(year, 0) for year in years]


@dataclass
class IssuanceTrend:
    """All Figure 2 lines."""

    years: list[int] = field(default_factory=lambda: list(range(2012, 2026)))
    all_unicerts: TrendSeries = field(default_factory=lambda: TrendSeries("all"))
    trusted: TrendSeries = field(default_factory=lambda: TrendSeries("trusted"))
    alive: TrendSeries = field(default_factory=lambda: TrendSeries("alive"))
    noncompliant: TrendSeries = field(default_factory=lambda: TrendSeries("noncompliant"))
    nc_trusted: TrendSeries = field(default_factory=lambda: TrendSeries("nc trusted"))
    nc_alive: TrendSeries = field(default_factory=lambda: TrendSeries("nc alive"))

    def trusted_share_per_year(self) -> dict[int, float]:
        shares = {}
        for year in self.years:
            total = self.all_unicerts.counts.get(year, 0)
            if total:
                shares[year] = self.trusted.counts.get(year, 0) / total
        return shares


def issuance_trend(corpus: Corpus, reports: list[CertificateReport]) -> IssuanceTrend:
    """Compute every Figure 2 line from the corpus and lint reports."""
    trend = IssuanceTrend()
    for record, report in zip(corpus.records, reports):
        year = record.issued_at.year
        trend.all_unicerts.add(year)
        if record.trusted_at_issuance:
            trend.trusted.add(year)
        if record.alive:
            trend.alive.add(year)
        if report.noncompliant:
            trend.noncompliant.add(year)
            if record.trusted_at_issuance:
                trend.nc_trusted.add(year)
            if record.alive:
                trend.nc_alive.add(year)
    return trend


@dataclass
class ValidityCDF:
    """One Figure 3 curve: sorted validity periods in days."""

    label: str
    days: list[float] = field(default_factory=list)

    def cdf_at(self, day: float) -> float:
        """Fraction of certificates valid for at most ``day`` days."""
        if not self.days:
            return 0.0
        count = sum(1 for d in self.days if d <= day)
        return count / len(self.days)

    def percentile(self, q: float) -> float:
        if not self.days:
            return 0.0
        ordered = sorted(self.days)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


def validity_cdfs(
    corpus: Corpus, reports: list[CertificateReport]
) -> dict[str, ValidityCDF]:
    """Figure 3: CDFs for IDNCerts, other Unicerts, NC, and all."""
    curves = {
        "all": ValidityCDF("all Unicerts"),
        "idn": ValidityCDF("IDNCerts"),
        "other": ValidityCDF("other Unicerts"),
        "noncompliant": ValidityCDF("noncompliant"),
    }
    for record, report in zip(corpus.records, reports):
        days = record.certificate.validity_days
        curves["all"].days.append(days)
        if report.noncompliant:
            curves["noncompliant"].days.append(days)
        elif record.is_idn:
            curves["idn"].days.append(days)
        else:
            curves["other"].days.append(days)
    return curves


# ---------------------------------------------------------------------------
# Rolling (per-window) views over a WindowedSummary
# ---------------------------------------------------------------------------


def rolling_trend(windowed) -> IssuanceTrend:
    """Figure 2 as a rolling series from a windowed summary.

    Consumes the monitor's epoch windows (year or month keyed): the
    ``all`` line is each epoch's certificate count, the ``noncompliant``
    line its noncompliant count — the two series the ASCII renderer
    (:func:`repro.analysis.render.render_trend`) draws.  Entries with
    no issuance timestamp (epoch ``unknown``) are excluded, exactly as
    the batch figure never sees them.
    """
    from ..engine.windows import UNKNOWN_EPOCH

    trend = IssuanceTrend()
    years: set[int] = set()
    for key in windowed.epoch_keys():
        if key == UNKNOWN_EPOCH:
            continue
        stats = windowed.by_epoch[key]
        year = int(str(key)[:4])
        years.add(year)
        trend.all_unicerts.counts[year] = (
            trend.all_unicerts.counts.get(year, 0) + stats.summary.total
        )
        if stats.summary.noncompliant:
            trend.noncompliant.counts[year] = (
                trend.noncompliant.counts.get(year, 0)
                + stats.summary.noncompliant
            )
    if years:
        trend.years = list(range(min(years), max(years) + 1))
    return trend


def rolling_validity_cdf(stats, label: str) -> ValidityCDF:
    """One Figure 3 curve from a window's validity-day histogram.

    The windowed fold buckets validity to whole days
    (:class:`~repro.engine.windows.CertFacts`), so the curve is exact
    at day granularity — the resolution the figure plots at.
    """
    curve = ValidityCDF(label)
    for bucket in sorted(stats.validity_days):
        curve.days.extend([float(bucket)] * stats.validity_days[bucket])
    return curve


def rolling_validity_cdfs(windowed) -> dict[str, ValidityCDF]:
    """Figure 3 as rolling curves: the running total plus each
    tumbling index window (keys ``all``, ``w0``, ``w1``, ...)."""
    curves = {"all": rolling_validity_cdf(windowed.total, "all entries")}
    for window_id in windowed.index_windows():
        curves[f"w{window_id}"] = rolling_validity_cdf(
            windowed.by_index[window_id], f"window {window_id}"
        )
    return curves


def rolling_field_series(windowed) -> list[tuple[int, dict[str, tuple[int, int]]]]:
    """Figure 4 as a per-window series.

    For each tumbling index window, every field column maps to
    ``(unicode_count, deviating_count)`` — the cell contents of the
    batch figure's issuer matrix, re-keyed by time instead of issuer.
    """
    series: list[tuple[int, dict[str, tuple[int, int]]]] = []
    for window_id in windowed.index_windows():
        stats = windowed.by_index[window_id]
        series.append(
            (
                window_id,
                {
                    column: (
                        stats.unicode_fields.get(column, 0),
                        stats.deviating_fields.get(column, 0),
                    )
                    for column in FIELD_COLUMNS
                },
            )
        )
    return series


def render_rolling_fields(series) -> list[str]:
    """The rolling Figure 4: one row per window, one column per field.

    Cell glyphs match :class:`repro.analysis.fields.FieldCell.marker`:
    ``+`` deviating findings present, ``.`` Unicode data present,
    space for neither.
    """
    width = max(len(column) for column in FIELD_COLUMNS)
    lines = ["Figure 4 (rolling): field presence per index window"]
    header = "window  " + "  ".join(
        f"{column:>{width}}" for column in FIELD_COLUMNS
    )
    lines.append(header)
    for window_id, cells in series:
        row = []
        for column in FIELD_COLUMNS:
            unicode_count, deviating_count = cells[column]
            if deviating_count:
                marker = "+"
            elif unicode_count:
                marker = "."
            else:
                marker = " "
            row.append(f"{marker:>{width}}")
        lines.append(f"w{window_id:<6} " + "  ".join(row))
    return lines


def render_rolling_windows(windowed) -> list[str]:
    """The monitor's per-window noncompliance table.

    One row per tumbling index window: entry range, total, noncompliant
    count and rate, and the window's top lint — the rolling view of the
    paper's Table 1 headline numbers.
    """
    lines = [
        "Per-window noncompliance "
        f"(tumbling, {windowed.config.index_window} entries/window):",
        f"{'window':<8}{'entries':<16}{'total':>7}{'nc':>6}{'rate':>8}  top lint",
    ]
    for window_id in windowed.index_windows():
        stats = windowed.by_index[window_id]
        top = stats.summary.top_lints(1)
        top_label = f"{top[0][0]} ({top[0][1]})" if top else "-"
        entries = f"[{stats.first_index}, {stats.last_index}]"
        lines.append(
            f"w{window_id:<7}{entries:<16}{stats.summary.total:>7}"
            f"{stats.summary.noncompliant:>6}"
            f"{stats.noncompliance_rate():>8.1%}  {top_label}"
        )
    return lines
