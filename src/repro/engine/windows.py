"""Windowed summary algebra for the incremental engine.

The batch pipeline folds per-shard :class:`~repro.lint.runner.CorpusSummary`
objects with :meth:`CorpusSummary.merge` — an exact, order-insensitive
aggregation.  A long-running CT-tail monitor needs the same numbers *per
window*: tumbling windows over the log's entry index (every N entries)
and rolling windows over the certificate's issued-at epoch (per year or
month), so the paper's longitudinal views (Figures 2/3/4) re-emit as
series instead of one terminal table.

:class:`WindowedSummary` is that structure.  Each window is a
:class:`WindowStats`: one ``CorpusSummary`` built by the *same*
``add``/``merge`` algebra as the batch path, plus the per-certificate
facts the figures need (validity-day histogram, Unicode/deviating field
counts).  Folding is strictly per-certificate and the grand total is
folded alongside the windows, so after processing entries ``[0, M)`` in
any batch decomposition, ``windowed.total.summary`` is structurally
identical to the one-shot batch summary over the same records — the
equivalence the kill/resume tests assert byte-for-byte.

Everything here serializes losslessly: ``to_dict``/``from_dict`` round
the whole structure through JSON-safe primitives (via
:func:`repro.lint.serialization.summary_to_dict` and its inverse), and
``to_json`` is canonical (sorted keys), which is what makes checkpoint
resume provably byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field

from ..asn1.oid import (
    OID_COMMON_NAME,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
    OID_STATE_OR_PROVINCE,
)
from ..lint.runner import CertificateReport, CorpusSummary, ReportTally, tally

#: Epoch window granularities keyed by issued-at timestamp.
EPOCHS = ("year", "month")

#: Epoch key for entries with no issued-at timestamp.  A real tail sees
#: these (precert submissions without embedded timestamps); they still
#: count in the index windows and the grand total.
UNKNOWN_EPOCH = "unknown"


@dataclass(frozen=True)
class CertFacts:
    """Figure-grade facts about one certificate, extracted at decode.

    Collected in the worker alongside linting (the certificate is
    already parsed there) so the windowed fold never re-parses DER in
    the parent.  Picklable by construction — plain ints and string
    tuples — because it rides back inside
    :class:`~repro.lint.parallel.ShardResult`.
    """

    #: Validity period bucketed to whole days (Figure 3 histogram).
    validity_days: int
    #: Figure 4 columns where this certificate carries non-ASCII data,
    #: sorted (``DNSName``/``CN``/``O``/``OU``/``L``/``ST``/
    #: ``CertificatePolicies``).
    unicode_fields: tuple[str, ...] = ()


#: Figure 4's Subject DN columns and the attribute each one reads.
_FIELD_OIDS = {
    "CN": OID_COMMON_NAME,
    "O": OID_ORGANIZATION_NAME,
    "OU": OID_ORGANIZATIONAL_UNIT,
    "L": OID_LOCALITY_NAME,
    "ST": OID_STATE_OR_PROVINCE,
}

_COLUMN_BY_OID = {oid.dotted: column for column, oid in _FIELD_OIDS.items()}


def _has_non_ascii(text: str) -> bool:
    """Whether ``text`` holds a character outside printable ASCII (0x20-0x7E)."""
    return not (text.isascii() and text.isprintable())


def cert_facts(cert) -> CertFacts:
    """Extract :class:`CertFacts` from a parsed certificate.

    Runs in worker processes (called from
    :func:`repro.lint.parallel.lint_shard`) once per certificate, so the
    Figure 4 column logic lives here: ``repro.engine`` stays free of any
    dependency on :mod:`repro.analysis` (which imports the ct corpus),
    and :func:`repro.analysis.fields.field_matrix` reads
    ``unicode_fields`` from this function.
    """
    fields: set[str] = set()
    for name in cert.san_dns_names:
        if _has_non_ascii(name) or any(
            label[:4].lower() == "xn--" for label in name.split(".")
        ):
            fields.add("DNSName")
            break
    for rdn in cert.subject.rdns:
        for attr in rdn.attributes:
            column = _COLUMN_BY_OID.get(attr.oid.dotted)
            if column is not None and _has_non_ascii(attr.value):
                fields.add(column)
    policies = cert.policies
    if policies is not None and any(
        _has_non_ascii(text) for _tag, text, _ok in policies.explicit_texts
    ):
        fields.add("CertificatePolicies")
    return CertFacts(
        validity_days=int(cert.validity_days),
        unicode_fields=tuple(sorted(fields)),
    )


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the windowed aggregation.

    ``index_window`` is the tumbling-window width in log entries;
    ``epoch`` keys the rolling issued-at windows (``"year"`` or
    ``"month"``).  Frozen because the checkpoint embeds it — resuming
    under a different shape would silently mis-assign entries.
    """

    index_window: int = 1024
    epoch: str = "year"

    def __post_init__(self):
        if self.index_window <= 0:
            raise ValueError(
                f"index_window must be positive, got {self.index_window}"
            )
        if self.epoch not in EPOCHS:
            raise ValueError(
                f"epoch must be one of {EPOCHS}, got {self.epoch!r}"
            )

    def epoch_key(self, issued_at: _dt.datetime | None) -> str:
        """The rolling-window key for one issuance timestamp."""
        if issued_at is None:
            return UNKNOWN_EPOCH
        if self.epoch == "month":
            return f"{issued_at.year:04d}-{issued_at.month:02d}"
        return f"{issued_at.year:04d}"


@dataclass
class WindowStats:
    """One window's aggregate: summary algebra plus figure facts."""

    summary: CorpusSummary = field(default_factory=CorpusSummary)
    #: Figure 3: validity periods bucketed to whole days.
    validity_days: dict[int, int] = field(default_factory=dict)
    #: Figure 4: certificates carrying non-ASCII data, per field column.
    unicode_fields: dict[str, int] = field(default_factory=dict)
    #: Figure 4: certificates with a finding mapped to a field column.
    deviating_fields: dict[str, int] = field(default_factory=dict)
    #: Entry-index range folded into this window (inclusive bounds).
    first_index: int | None = None
    last_index: int | None = None

    def fold(
        self,
        index: int,
        counts: ReportTally,
        deviating: tuple[str, ...],
        facts: CertFacts | None = None,
    ) -> None:
        """Fold one certificate into the window.

        ``counts`` is its report's :func:`~repro.lint.runner.tally` and
        ``deviating`` the :func:`deviating_columns` of that tally.
        """
        self.summary.add_tally(counts)
        if facts is not None:
            bucket = facts.validity_days
            self.validity_days[bucket] = self.validity_days.get(bucket, 0) + 1
            for column in facts.unicode_fields:
                self.unicode_fields[column] = (
                    self.unicode_fields.get(column, 0) + 1
                )
        for column in deviating:
            self.deviating_fields[column] = (
                self.deviating_fields.get(column, 0) + 1
            )
        if self.first_index is None or index < self.first_index:
            self.first_index = index
        if self.last_index is None or index > self.last_index:
            self.last_index = index

    def merge(self, other: "WindowStats") -> "WindowStats":
        """Exact in-place merge (same algebra as ``CorpusSummary.merge``)."""
        self.summary.merge(other.summary)
        for bucket in sorted(other.validity_days):
            self.validity_days[bucket] = (
                self.validity_days.get(bucket, 0) + other.validity_days[bucket]
            )
        for target, source in (
            (self.unicode_fields, other.unicode_fields),
            (self.deviating_fields, other.deviating_fields),
        ):
            for column in sorted(source):
                target[column] = target.get(column, 0) + source[column]
        self._canonicalize()
        if other.first_index is not None and (
            self.first_index is None or other.first_index < self.first_index
        ):
            self.first_index = other.first_index
        if other.last_index is not None and (
            self.last_index is None or other.last_index > self.last_index
        ):
            self.last_index = other.last_index
        return self

    def _canonicalize(self) -> None:
        self.validity_days = dict(sorted(self.validity_days.items()))
        self.unicode_fields = dict(sorted(self.unicode_fields.items()))
        self.deviating_fields = dict(sorted(self.deviating_fields.items()))

    # -- derived views ------------------------------------------------

    @property
    def total(self) -> int:
        return self.summary.total

    def noncompliance_rate(self) -> float:
        """Noncompliant share of the window (0.0 for an empty window)."""
        if not self.summary.total:
            return 0.0
        return self.summary.noncompliant / self.summary.total

    def type_mix(self) -> dict[str, float]:
        """Noncompliance mix: per-type share of *noncompliant* certs."""
        nc = self.summary.noncompliant
        if not nc:
            return {}
        return {
            nc_type.value: count / nc
            for nc_type, count in sorted(
                self.summary.per_type.items(), key=lambda kv: kv[0].value
            )
        }

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        from ..lint.serialization import summary_to_dict

        self._canonicalize()
        return {
            "summary": summary_to_dict(self.summary),
            "validity_days": {
                str(bucket): count
                for bucket, count in self.validity_days.items()
            },
            "unicode_fields": dict(self.unicode_fields),
            "deviating_fields": dict(self.deviating_fields),
            "first_index": self.first_index,
            "last_index": self.last_index,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowStats":
        from ..lint.serialization import summary_from_dict

        stats = cls(
            summary=summary_from_dict(payload["summary"]),
            validity_days={
                int(bucket): count
                for bucket, count in sorted(
                    payload["validity_days"].items(), key=lambda kv: int(kv[0])
                )
            },
            unicode_fields=dict(sorted(payload["unicode_fields"].items())),
            deviating_fields=dict(sorted(payload["deviating_fields"].items())),
            first_index=payload["first_index"],
            last_index=payload["last_index"],
        )
        return stats


def _lint_field(lint_name: str) -> str:
    """Map a lint name to its Figure 4 field column."""
    if "dns" in lint_name or "san" in lint_name:
        return "DNSName"
    if "common_name" in lint_name or "_cn_" in lint_name:
        return "CN"
    if "organization" in lint_name and "unit" not in lint_name:
        return "O"
    if "_ou_" in lint_name:
        return "OU"
    if "locality" in lint_name:
        return "L"
    if "state" in lint_name:
        return "ST"
    if "_cp_" in lint_name:
        return "CertificatePolicies"
    return "CN" if "subject" in lint_name else "other"


def deviating_columns(counts: ReportTally) -> tuple[str, ...]:
    """Sorted Figure 4 columns of the lints that fired in one report."""
    if not counts.names:
        return ()
    return tuple(sorted({_lint_field(name) for name in counts.names}))


@dataclass
class WindowedSummary:
    """The incremental engine's mutable aggregate.

    Three synchronized views, all fed by :meth:`fold_tally`:

    * ``total`` — the grand aggregate, structurally identical to the
      one-shot batch summary over the same entries;
    * ``by_index`` — tumbling windows keyed by
      ``entry_index // config.index_window``;
    * ``by_epoch`` — rolling windows keyed by the certificate's
      issued-at epoch (:meth:`WindowConfig.epoch_key`).
    """

    config: WindowConfig = field(default_factory=WindowConfig)
    total: WindowStats = field(default_factory=WindowStats)
    by_index: dict[int, WindowStats] = field(default_factory=dict)
    by_epoch: dict[str, WindowStats] = field(default_factory=dict)
    #: Entries folded so far (== the log position after a gapless tail).
    entries: int = 0

    def fold(
        self,
        index: int,
        issued_at: _dt.datetime | None,
        report: CertificateReport,
        facts: CertFacts | None = None,
    ) -> None:
        """Fold one log entry's lint report into every view."""
        self.fold_tally(index, issued_at, tally(report), facts)

    def fold_tally(
        self,
        index: int,
        issued_at: _dt.datetime | None,
        counts: ReportTally,
        facts: CertFacts | None = None,
    ) -> None:
        """Fold one log entry's report :func:`~repro.lint.runner.tally`
        into every view; the three views share it."""
        deviating = deviating_columns(counts)
        self.total.fold(index, counts, deviating, facts)
        window_id = index // self.config.index_window
        window = self.by_index.get(window_id)
        if window is None:
            window = self.by_index[window_id] = WindowStats()
        window.fold(index, counts, deviating, facts)
        key = self.config.epoch_key(issued_at)
        epoch = self.by_epoch.get(key)
        if epoch is None:
            epoch = self.by_epoch[key] = WindowStats()
        epoch.fold(index, counts, deviating, facts)
        self.entries += 1

    # -- window queries -----------------------------------------------

    def index_windows(self) -> list[int]:
        """Tumbling window ids in ascending order."""
        return sorted(self.by_index)

    def epoch_keys(self) -> list[str]:
        """Epoch keys in ascending order (``unknown`` sorts last)."""
        known = sorted(k for k in self.by_epoch if k != UNKNOWN_EPOCH)
        if UNKNOWN_EPOCH in self.by_epoch:
            known.append(UNKNOWN_EPOCH)
        return known

    def completed_index_windows(self, position: int) -> list[int]:
        """Window ids fully covered by entries ``[0, position)``."""
        return [
            window_id
            for window_id in self.index_windows()
            if (window_id + 1) * self.config.index_window <= position
        ]

    def trailing_baseline(self, window_id: int, depth: int) -> WindowStats:
        """Merged stats of up to ``depth`` windows before ``window_id``."""
        baseline = WindowStats()
        for previous in range(max(0, window_id - depth), window_id):
            stats = self.by_index.get(previous)
            if stats is not None:
                baseline.merge(stats)
        return baseline

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config": {
                "index_window": self.config.index_window,
                "epoch": self.config.epoch,
            },
            "entries": self.entries,
            "total": self.total.to_dict(),
            "by_index": {
                str(window_id): self.by_index[window_id].to_dict()
                for window_id in self.index_windows()
            },
            "by_epoch": {
                key: self.by_epoch[key].to_dict()
                for key in self.epoch_keys()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowedSummary":
        config = WindowConfig(
            index_window=payload["config"]["index_window"],
            epoch=payload["config"]["epoch"],
        )
        return cls(
            config=config,
            total=WindowStats.from_dict(payload["total"]),
            by_index={
                int(window_id): WindowStats.from_dict(block)
                for window_id, block in sorted(
                    payload["by_index"].items(), key=lambda kv: int(kv[0])
                )
            },
            by_epoch={
                key: WindowStats.from_dict(block)
                for key, block in sorted(payload["by_epoch"].items())
            },
            entries=payload["entries"],
        )

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON (sorted keys): the byte-identity comparison
        form for the kill/resume equivalence proofs."""
        return json.dumps(
            self.to_dict(), indent=indent, ensure_ascii=False, sort_keys=True
        )


# ---------------------------------------------------------------------------
# Threshold alerts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """One threshold breach: a window's mix shifted vs its baseline."""

    window_id: int
    metric: str
    value: float
    baseline: float

    @property
    def delta(self) -> float:
        return self.value - self.baseline

    def describe(self) -> str:
        direction = "up" if self.delta >= 0 else "down"
        return (
            f"window {self.window_id}: {self.metric} {direction} "
            f"{abs(self.delta):.1%} (window {self.value:.1%} vs "
            f"baseline {self.baseline:.1%})"
        )


@dataclass(frozen=True)
class AlertPolicy:
    """When to raise: absolute share shifts beyond ``threshold``.

    Two families of metrics per completed index window, both compared
    against the merged trailing baseline of up to ``depth`` previous
    windows:

    * ``noncompliance_rate`` — the window's noncompliant share;
    * ``type_share:<Type>`` — each noncompliance type's share of the
      window's noncompliant certificates (the "mix").

    Windows or baselines below ``min_total`` records are skipped: a
    three-certificate window trivially swings 30 points.
    """

    threshold: float = 0.15
    depth: int = 4
    min_total: int = 16

    def evaluate(
        self, windowed: WindowedSummary, window_id: int
    ) -> list[Alert]:
        """Alerts for one window vs its trailing baseline (sorted)."""
        window = windowed.by_index.get(window_id)
        if window is None or window.total < self.min_total:
            return []
        baseline = windowed.trailing_baseline(window_id, self.depth)
        if baseline.total < self.min_total:
            return []
        alerts: list[Alert] = []
        rate = window.noncompliance_rate()
        base_rate = baseline.noncompliance_rate()
        if abs(rate - base_rate) > self.threshold:
            alerts.append(
                Alert(window_id, "noncompliance_rate", rate, base_rate)
            )
        mix = window.type_mix()
        base_mix = baseline.type_mix()
        for nc_type in sorted(set(mix) | set(base_mix)):
            share = mix.get(nc_type, 0.0)
            base_share = base_mix.get(nc_type, 0.0)
            if abs(share - base_share) > self.threshold:
                alerts.append(
                    Alert(
                        window_id,
                        f"type_share:{nc_type}",
                        share,
                        base_share,
                    )
                )
        return alerts
