"""Lint runner: apply the registry to certificates and aggregate reports."""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from ..x509.certificate import Certificate
from .framework import (
    Lint,
    LintResult,
    LintStatus,
    NoncomplianceType,
    REGISTRY,
    RegistryIndex,
    Severity,
    index_for,
    to_utc_naive,
)


class CertificateReport:
    """All lint results for one certificate.

    A report :func:`run_lints` builds holds its verdict template's PASS
    skeleton and the results of the rows that ran, and splices them into
    ``results`` on first read.  Until then :func:`tally` reads only the
    rows that ran, since every skeleton row is a PASS; once ``results``
    has been handed out a caller may change it, so ``tally`` scans it.
    """

    __slots__ = ("_results", "_static", "_dynamic")

    def __init__(self, results: list[LintResult] | None = None):
        self._results = [] if results is None else results
        self._static: tuple = ()
        self._dynamic: tuple = ()

    @classmethod
    def from_template(cls, static: tuple, dynamic: tuple) -> "CertificateReport":
        """A report of the PASS results ``static`` with each
        ``(position, result)`` of ``dynamic`` spliced in before
        ``static[position]`` (positions ascending)."""
        report = cls.__new__(cls)
        report._results = None
        report._static = static
        report._dynamic = dynamic
        return report

    @property
    def results(self) -> list[LintResult]:
        results = self._results
        if results is None:
            static = self._static
            results = []
            start = 0
            for position, result in self._dynamic:
                results += static[start:position]
                start = position
                results.append(result)
            results += static[start:]
            self._results = results
            self._static = self._dynamic = ()
        return results

    def __eq__(self, other) -> bool:
        if not isinstance(other, CertificateReport):
            return NotImplemented
        return self.results == other.results

    __hash__ = None

    def __repr__(self) -> str:
        return f"CertificateReport(results={self.results!r})"

    @property
    def findings(self) -> list[LintResult]:
        return [r for r in self.results if r.is_finding]

    @property
    def errors(self) -> list[LintResult]:
        return [r for r in self.results if r.status is LintStatus.ERROR]

    @property
    def warnings(self) -> list[LintResult]:
        return [r for r in self.results if r.status is LintStatus.WARN]

    @property
    def suppressed_by_effective_date(self) -> list[LintResult]:
        return [r for r in self.results if r.status is LintStatus.NOT_EFFECTIVE]

    @property
    def noncompliant(self) -> bool:
        """Whether any effective lint produced a finding."""
        return bool(self.findings)

    @property
    def noncompliant_ignoring_dates(self) -> bool:
        """The paper's footnote-4 view: 249K grows to 1.8M without dates."""
        return bool(self.findings) or bool(self.suppressed_by_effective_date)

    def fired_lints(self) -> list[str]:
        return [r.lint.name for r in self.findings]

    def types(self) -> set[NoncomplianceType]:
        return {r.lint.nc_type for r in self.findings}

    def has_error_level(self) -> bool:
        return bool(self.errors)

    def has_warning_level(self) -> bool:
        return bool(self.warnings)


class ReportTally(NamedTuple):
    """What one report adds to a :class:`CorpusSummary`.

    Built by :func:`tally` in one scan of the results, so a report
    folded into several summaries (the windowed views) is scanned once.
    Each tuple holds distinct values in the order ``add`` inserts them.
    """

    noncompliant: bool
    noncompliant_ignoring_dates: bool
    #: Fired lint names, sorted.
    names: tuple[str, ...]
    #: Noncompliance types of all findings / ERROR / WARN findings,
    #: sorted by value.
    types: tuple[NoncomplianceType, ...]
    error_types: tuple[NoncomplianceType, ...]
    warn_types: tuple[NoncomplianceType, ...]


_CLEAN = ReportTally(False, False, (), (), (), ())
_CLEAN_SUPPRESSED = ReportTally(False, True, (), (), (), ())


def tally(report: CertificateReport) -> ReportTally:
    """Scan ``report.results`` once into a :class:`ReportTally`.

    A report whose results were never read is scanned over the rows
    that ran alone: the rest of it is its template's PASS skeleton.
    """
    results = report._results
    if results is None:
        if not report._dynamic:
            return _CLEAN
        results = [result for _position, result in report._dynamic]
    error, warn, not_effective = LintStatus.ERROR, LintStatus.WARN, LintStatus.NOT_EFFECTIVE
    findings = []
    suppressed = False
    for result in results:
        status = result.status
        if status is error or status is warn:
            findings.append(result)
        elif status is not_effective:
            suppressed = True
    if not findings:
        return _CLEAN_SUPPRESSED if suppressed else _CLEAN
    names: set[str] = set()
    types: set[NoncomplianceType] = set()
    error_types: set[NoncomplianceType] = set()
    warn_types: set[NoncomplianceType] = set()
    for result in findings:
        lint = result.lint
        names.add(lint.name)
        types.add(lint.nc_type)
        if result.status is error:
            error_types.add(lint.nc_type)
        else:
            warn_types.add(lint.nc_type)
    return ReportTally(
        True,
        True,
        tuple(sorted(names)),
        tuple(_sorted_types(types)),
        tuple(_sorted_types(error_types)),
        tuple(_sorted_types(warn_types)),
    )


def run_lints(
    cert: Certificate,
    issued_at: _dt.datetime | None = None,
    lints: Sequence[Lint] | None = None,
    respect_effective_dates: bool = True,
    index: RegistryIndex | None = None,
    scan: tuple[int, list] | None = None,
) -> CertificateReport:
    """Run every lint (or a subset) against one certificate.

    Dispatches through the compiled plan of a :class:`RegistryIndex`
    (:mod:`repro.lint.compiled`).  One pass over the certificate's
    fields (:meth:`~repro.lint.compiled.CompiledPlan.scan`) yields its
    integer family signature and its slot masks; those select a
    memoized verdict template: the PASS results of every row the masks
    settle, and the few rows whose ``check()`` still runs.  The report
    is that skeleton with the dynamic results spliced in; no lint's
    ``applies()`` is called, and nothing is stored on the certificate.
    Pass ``scan``, the plan's pass over ``cert`` made beforehand, to
    reuse it (the window facts of
    :func:`repro.engine.windows.cert_facts` read the same pass).  The
    test-only oracle this must agree with, report for report, is
    :func:`repro.lint.reference.reference_run_lints`.  Pass a prebuilt
    ``index`` (matching ``lints``) to skip the per-call memo lookup.
    """
    if index is None:
        index = index_for(tuple(lints) if lints is not None else REGISTRY.snapshot())
    plan = index.compiled_plan()
    if scan is None:
        scan = plan.scan(cert)
    static, dynamic = plan.template(*scan)
    if not dynamic:
        return CertificateReport.from_template(static, ())
    ran = []
    for position, lint, passed in dynamic:
        compliant, details = lint.check(cert)
        if compliant:
            ran.append((position, passed))
            continue
        meta = lint.metadata
        when = issued_at if issued_at is not None else cert.not_before
        if respect_effective_dates and meta.name in (
            index.not_effective_names(to_utc_naive(when))
        ):
            status = LintStatus.NOT_EFFECTIVE
        elif meta.severity is Severity.ERROR:
            status = LintStatus.ERROR
        else:
            status = LintStatus.WARN
        ran.append((position, LintResult(meta, status, details)))
    return CertificateReport.from_template(static, tuple(ran))


@dataclass
class CorpusSummary:
    """Aggregate lint statistics over a corpus (feeds Tables 1/11).

    Every counter counts *certificates*, never findings: a certificate
    that triggers the same lint twice (e.g. in two subject attributes)
    contributes one to that lint's ``per_lint`` cell.  All counters are
    plain sums, which makes :meth:`merge` an exact aggregation — merging
    per-shard summaries in any grouping or order yields byte-identical
    results to sequentially :meth:`add`-ing every report.
    """

    total: int = 0
    noncompliant: int = 0
    noncompliant_ignoring_dates: int = 0
    per_lint: dict[str, int] = field(default_factory=dict)
    per_type: dict[NoncomplianceType, int] = field(default_factory=dict)
    error_level: dict[NoncomplianceType, int] = field(default_factory=dict)
    warn_level: dict[NoncomplianceType, int] = field(default_factory=dict)

    def add(self, report: CertificateReport) -> None:
        """Fold one certificate's report into the summary.

        Per-certificate deduplication is explicit: each distinct lint
        name / noncompliance type is counted at most once per report,
        regardless of how many findings carry it.
        """
        self.add_tally(tally(report))

    def add_tally(self, counts: ReportTally) -> None:
        """Fold one report's precomputed :class:`ReportTally`."""
        self.total += 1
        if not counts.noncompliant_ignoring_dates:
            return
        if counts.noncompliant:
            self.noncompliant += 1
        self.noncompliant_ignoring_dates += 1
        # The tally's keys are sorted, which keeps dict insertion order
        # deterministic, so two summaries over the same corpus compare
        # equal structurally no matter how certificates were sharded.
        for target, keys in (
            (self.per_lint, counts.names),
            (self.per_type, counts.types),
            (self.error_level, counts.error_types),
            (self.warn_level, counts.warn_types),
        ):
            for key in keys:
                target[key] = target.get(key, 0) + 1

    def merge(self, other: "CorpusSummary") -> "CorpusSummary":
        """Fold another summary into this one (exact, in place).

        Merging is commutative and associative up to dict key order;
        key order itself is canonicalized so that any shard grouping
        produces a structurally identical summary.  Returns ``self``
        for chaining/``reduce``.
        """
        self.total += other.total
        self.noncompliant += other.noncompliant
        self.noncompliant_ignoring_dates += other.noncompliant_ignoring_dates
        for name in sorted(other.per_lint):
            self.per_lint[name] = self.per_lint.get(name, 0) + other.per_lint[name]
        for target, source in (
            (self.per_type, other.per_type),
            (self.error_level, other.error_level),
            (self.warn_level, other.warn_level),
        ):
            for nc_type in _sorted_types(source):
                target[nc_type] = target.get(nc_type, 0) + source[nc_type]
        self._canonicalize()
        return self

    def _canonicalize(self) -> None:
        """Rebuild counter dicts in sorted key order.

        ``add`` inserts keys in first-seen order, which depends on which
        certificate a shard saw first.  Sorting after a merge erases that
        history so ``--jobs N`` output is byte-identical to ``--jobs 1``.
        """
        self.per_lint = dict(sorted(self.per_lint.items()))
        self.per_type = dict(sorted(self.per_type.items(), key=lambda kv: kv[0].value))
        self.error_level = dict(sorted(self.error_level.items(), key=lambda kv: kv[0].value))
        self.warn_level = dict(sorted(self.warn_level.items(), key=lambda kv: kv[0].value))

    @classmethod
    def merged(cls, summaries: Iterable["CorpusSummary"]) -> "CorpusSummary":
        """Exact aggregation of many (per-shard) summaries."""
        merged = cls()
        for summary in summaries:
            merged.merge(summary)
        return merged

    @classmethod
    def from_reports(cls, reports: Iterable[CertificateReport]) -> "CorpusSummary":
        """Stream per-certificate reports into a fresh summary."""
        summary = cls()
        for report in reports:
            summary.add(report)
        summary._canonicalize()
        return summary

    def top_lints(self, count: int = 25) -> list[tuple[str, int]]:
        """Lints ranked by certificate count.

        Ties break on ascending lint name, which is a *total* order:
        merged and sequentially built summaries rank identically even
        when several lints share a count.
        """
        return sorted(self.per_lint.items(), key=lambda kv: (-kv[1], kv[0]))[:count]


def _sorted_types(types: Iterable[NoncomplianceType]) -> list[NoncomplianceType]:
    return sorted(types, key=lambda t: t.value)


def summarize(reports: Iterable[CertificateReport]) -> CorpusSummary:
    """Aggregate many per-certificate reports into one summary.

    Thin wrapper over the streaming path used by the sharded pipeline
    (:mod:`repro.lint.parallel`); both produce identical summaries.
    """
    return CorpusSummary.from_reports(reports)
