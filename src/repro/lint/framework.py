"""Lint framework: metadata, registry, statuses, and the Lint base class.

Mirrors the structure of Zlint (which the paper extends): every lint has
a name, a citation/source, a requirement level that maps to a severity,
and an *effective date* — the date from which the rule applies to newly
issued certificates.  Certificates issued before a lint's effective date
receive :attr:`LintStatus.NOT_EFFECTIVE` rather than an error, exactly
as the paper's methodology prescribes (Section 3.1.2).
"""

from __future__ import annotations

import abc
import bisect
import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..memo import ProcessMemo
from ..x509.certificate import Certificate

if TYPE_CHECKING:
    from .compiled import ScanSpec


class Severity(enum.Enum):
    """Requirement level mapped to finding severity (Zlint-style)."""

    ERROR = "error"  # MUST / MUST NOT violations
    WARN = "warning"  # SHOULD / SHOULD NOT violations
    NOTICE = "notice"
    INFO = "info"


class Source(enum.Enum):
    """Where a lint's requirement comes from."""

    RFC5280 = "RFC 5280"
    RFC6818 = "RFC 6818"
    RFC8399 = "RFC 8399"
    RFC9549 = "RFC 9549"
    RFC9598 = "RFC 9598"
    RFC1034 = "RFC 1034"
    IDNA2008 = "RFC 5890-5893 (IDNA2008)"
    X680 = "ITU-T X.680"
    CABF_BR = "CA/B Forum Baseline Requirements"
    CABF_EV = "CA/B Forum EV Guidelines"
    COMMUNITY = "Community"


class NoncomplianceType(enum.Enum):
    """The paper's Table 1 taxonomy."""

    INVALID_CHARACTER = "Invalid Character"  # T1
    BAD_NORMALIZATION = "Bad Normalization"  # T2
    ILLEGAL_FORMAT = "Illegal Format"  # T3
    INVALID_ENCODING = "Invalid Encoding"  # T3
    INVALID_STRUCTURE = "Invalid Structure"  # T3
    DISCOURAGED_FIELD = "Discouraged Field"  # T3

    @property
    def top_level(self) -> str:
        return {
            NoncomplianceType.INVALID_CHARACTER: "T1",
            NoncomplianceType.BAD_NORMALIZATION: "T2",
        }.get(self, "T3")


class LintStatus(enum.Enum):
    """Per-certificate outcome of one lint."""
    PASS = "pass"
    ERROR = "error"
    WARN = "warn"
    NA = "not_applicable"  # The checked field is absent.
    NOT_EFFECTIVE = "not_effective"  # Cert predates the rule.

    @property
    def is_finding(self) -> bool:
        return self in (LintStatus.ERROR, LintStatus.WARN)


def to_utc_naive(value: _dt.datetime) -> _dt.datetime:
    """Normalize a datetime to UTC-naive for effective-date comparisons.

    Effective dates are stored naive (implicitly UTC).  Callers hand us
    ``issued_at`` values from heterogeneous sources — CT log timestamps
    are often timezone-aware while builder-produced ``not_before`` values
    are naive — and Python refuses to compare the two.  Projecting aware
    values onto UTC and dropping the tzinfo makes every comparison legal
    and keeps naive inputs bit-identical.
    """
    if value.tzinfo is not None:
        return value.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    return value


#: Effective dates of the standards the lints cite.
RFC5280_DATE = _dt.datetime(2008, 5, 19)
RFC6818_DATE = _dt.datetime(2013, 1, 1)
CABF_BR_DATE = _dt.datetime(2012, 7, 1)
IDNA2008_DATE = _dt.datetime(2010, 8, 1)
RFC8399_DATE = _dt.datetime(2018, 5, 1)
RFC9549_DATE = _dt.datetime(2024, 2, 1)
RFC9598_DATE = _dt.datetime(2024, 5, 1)
COMMUNITY_DATE = _dt.datetime(2015, 1, 1)

#: Publication date of each source document: a lint may not take effect
#: before the standard it cites, or it would turn certificates the paper
#: calls NOT_EFFECTIVE into findings.  RFC 1034 and X.680 predate every
#: lint here, so they impose no floor.
_SOURCE_FLOOR: dict[Source, _dt.datetime] = {
    Source.RFC5280: RFC5280_DATE,
    Source.RFC6818: RFC6818_DATE,
    Source.RFC8399: RFC8399_DATE,
    Source.RFC9549: RFC9549_DATE,
    Source.RFC9598: RFC9598_DATE,
    Source.IDNA2008: IDNA2008_DATE,
    Source.CABF_BR: CABF_BR_DATE,
    Source.COMMUNITY: COMMUNITY_DATE,
}

#: Registered lints whose metadata breaks a rule of
#: :func:`metadata_violations` and is kept as it is.  The CN-in-SAN
#: rule keeps Zlint's historical ``w_`` name although the BRs make it a
#: MUST; the other three carry effective dates earlier than their
#: source (RFC 6818, RFC 9598, IDNA2008).  Correcting any of them moves
#: Table 1's severity shares or its "ignoring effective dates" ratio, so
#: each waits for a decision against its standard.
METADATA_EXEMPT = frozenset(
    {
        "w_cab_subject_common_name_not_in_san",
        "e_smtp_utf8_mailbox_not_utf8string",
        "w_rfc_ext_cp_explicit_text_not_utf8",
        "e_dns_label_hyphen_at_edge",
    }
)


def metadata_violations(meta: LintMetadata) -> list[str]:
    """The metadata rules ``meta`` breaks, as messages (empty if none).

    A name starts with ``e_`` exactly when the severity is ERROR, or
    with ``w_`` otherwise, and the effective date is not earlier than
    the publication date of the lint's source.
    """
    problems = []
    name = meta.name
    if not name.startswith(("e_", "w_")):
        problems.append("lint name must start with 'e_' or 'w_'")
    elif name.startswith("e_") != (meta.severity is Severity.ERROR):
        problems.append(
            f"name prefix {name[:2]!r} but severity is {meta.severity.value!r}"
        )
    floor = _SOURCE_FLOOR.get(meta.source)
    if floor is not None and meta.effective_date < floor:
        problems.append(
            f"effective_date {meta.effective_date.date()} predates its "
            f"source {meta.source.value} ({floor.date()})"
        )
    return problems


@dataclass(frozen=True)
class LintMetadata:
    """Descriptive metadata for one lint.

    Building one checks :func:`metadata_violations` and raises
    ``ValueError`` on a broken rule, unless the name is in
    :data:`METADATA_EXEMPT`; so a mis-declared lint fails at
    ``import repro.lint``.
    """

    name: str
    description: str
    citation: str
    source: Source
    severity: Severity
    nc_type: NoncomplianceType
    effective_date: _dt.datetime
    #: True for the 50 lints the paper adds beyond existing linters.
    new: bool = False

    def __post_init__(self):
        if self.name not in METADATA_EXEMPT:
            problems = metadata_violations(self)
            if problems:
                raise ValueError(f"lint {self.name!r}: {'; '.join(problems)}")


@dataclass(frozen=True, slots=True)
class LintResult:
    """Outcome of applying one lint to one certificate.

    Immutable: the runner shares one PASS result per lint across every
    report built from the same verdict template.
    """

    lint: LintMetadata
    status: LintStatus
    details: str = ""

    @property
    def is_finding(self) -> bool:
        return self.status.is_finding


class Lint(abc.ABC):
    """A single compliance check.

    Subclasses (or instances built by the factory helpers) provide
    ``metadata``, :meth:`check`, and the lint's applicability twice: as
    the :attr:`scan` declaration production dispatches on, and as the
    :meth:`applies` spec that :meth:`run` (and so the reference oracle)
    executes.  The applicability property test holds the two equal.
    """

    metadata: LintMetadata

    #: The lint's declared kernel (:class:`repro.lint.compiled.ScanSpec`):
    #: its scope fixes the field families and, with its mode, when the
    #: lint applies; its trigger MUST be a necessary condition for
    #: ``check()`` to fail (see DESIGN.md §12).  ``None`` makes an
    #: unscoped row, live on every certificate with ``check()`` always
    #: run, so it fits only a lint whose ``applies()`` is always True.
    scan: ScanSpec | None = None

    def applies(self, cert: Certificate) -> bool:
        """Whether the certificate carries the field this lint checks."""
        return True

    @abc.abstractmethod
    def check(self, cert: Certificate) -> tuple[bool, str]:
        """Return ``(compliant, details)`` for an applicable cert."""

    def run(
        self,
        cert: Certificate,
        issued_at: _dt.datetime | None = None,
        respect_effective_date: bool = True,
    ) -> LintResult:
        """Apply the lint, honoring applicability and effective dates."""
        if not self.applies(cert):
            return LintResult(self.metadata, LintStatus.NA)
        compliant, details = self.check(cert)
        if compliant:
            return LintResult(self.metadata, LintStatus.PASS)
        when = to_utc_naive(issued_at if issued_at is not None else cert.not_before)
        if respect_effective_date and when < self.metadata.effective_date:
            return LintResult(self.metadata, LintStatus.NOT_EFFECTIVE, details)
        status = (
            LintStatus.ERROR
            if self.metadata.severity is Severity.ERROR
            else LintStatus.WARN
        )
        return LintResult(self.metadata, status, details)


class FunctionLint(Lint):
    """A lint assembled from plain functions (used by the factories)."""

    def __init__(self, metadata, applies_fn, check_fn, scan=None):
        self.metadata = metadata
        self._applies = applies_fn
        self._check = check_fn
        self.scan = scan

    def applies(self, cert: Certificate) -> bool:
        return self._applies(cert)

    def check(self, cert: Certificate) -> tuple[bool, str]:
        return self._check(cert)


class LintRegistry:
    """Global registry of lints, keyed by name.

    The registry is write-once-then-read-hot: all registration happens
    during ``repro.lint`` import, after which the lint runner asks for
    the full lint list once per certificate.  :meth:`register` rebuilds
    the snapshot tuple, so :meth:`snapshot` is a pure attribute read
    instead of a fresh dict-to-list copy per call.
    """

    def __init__(self):
        self._lints: dict[str, Lint] = {}
        self._snapshot: tuple[Lint, ...] = ()

    def register(self, lint: Lint) -> Lint:
        name = lint.metadata.name
        if name in self._lints:
            raise ValueError(f"duplicate lint name {name!r}")
        self._lints[name] = lint
        self._snapshot = tuple(self._lints.values())
        return lint

    def get(self, name: str) -> Lint:
        return self._lints[name]

    def __contains__(self, name: str) -> bool:
        return name in self._lints

    def __len__(self) -> int:
        return len(self._lints)

    def snapshot(self) -> tuple[Lint, ...]:
        """The registered lints as a registration-ordered tuple."""
        return self._snapshot

    # -- introspection (used by the rule table, the analyses and tests) --

    def __iter__(self):
        return iter(self.snapshot())

    def names(self) -> tuple[str, ...]:
        """Registered lint names, in registration order."""
        return tuple(lint.metadata.name for lint in self.snapshot())

    def items(self):
        """``(name, lint)`` pairs, in registration order."""
        return tuple((lint.metadata.name, lint) for lint in self.snapshot())

    def all(self) -> list[Lint]:
        return list(self.snapshot())

    def by_type(self, nc_type: NoncomplianceType) -> list[Lint]:
        return [l for l in self._lints.values() if l.metadata.nc_type is nc_type]

    def new_lints(self) -> list[Lint]:
        return [l for l in self._lints.values() if l.metadata.new]


class RegistryIndex:
    """Pre-indexed schedule for a fixed lint sequence.

    Built once per worker (or memoized per lint tuple) and reused across
    every certificate of a run.  Two scheduling shortcuts live here:

    * **Family buckets** — each lint's scope names the field families it
      can apply to (``ScanSpec.families``); the plan gives each family
      one bit and tests a row's family mask against the certificate's
      integer signature with one ``&``.  Skipping is exact: family
      absent ⇒ ``applies()`` False ⇒ the NA result the report would
      have dropped anyway.
    * **Effective-date bisect** — the distinct effective dates are
      pre-sorted, so "which lints are not yet effective at ``issued_at``"
      is one :func:`bisect.bisect_right` plus a tuple lookup of the
      frozenset built for that cut point, rather than a datetime
      comparison per failing lint.

    Everything is built in ``__init__`` (the compiled plan included), so
    an index shared with forked workers is never written after
    construction.
    """

    def __init__(self, lints):
        from .compiled import CompiledPlan

        self.lints = tuple(lints)
        dates = sorted({l.metadata.effective_date for l in self.lints})
        self._dates_sorted = dates
        self._not_effective = tuple(
            frozenset(
                lint.metadata.name
                for lint in self.lints
                if lint.metadata.effective_date >= threshold
            )
            for threshold in dates
        ) + (frozenset(),)
        self._plan = CompiledPlan(self.lints)

    def compiled_plan(self):
        """The schedule's :class:`repro.lint.compiled.CompiledPlan`."""
        return self._plan

    def not_effective_names(self, when: _dt.datetime) -> frozenset:
        """Names of lints whose effective date is after ``when``.

        ``when`` must already be UTC-naive (see :func:`to_utc_naive`).
        Membership only depends on where ``when`` falls between the
        distinct effective dates: one frozenset per cut point.
        """
        return self._not_effective[bisect.bisect_right(self._dates_sorted, when)]


#: Entry cap of :data:`_INDEX_MEMO`.  Each index holds a compiled plan
#: whose four memos reach ~29 MiB when full (templates ~10, issuer and
#: payload facts ~19), so only a handful are kept.
_INDEX_MEMO_MAX = 8

#: Index memo keyed by the exact lint tuple (tuple equality falls back to
#: per-element identity, so repeated ``run_lints(lints=[...])`` calls on
#: the same lint objects reuse one index).
_INDEX_MEMO = ProcessMemo(_INDEX_MEMO_MAX)


def index_for(lints: tuple) -> RegistryIndex:
    """The memoized :class:`RegistryIndex` for a lint tuple."""
    index = _INDEX_MEMO.get(lints)
    if index is None:
        index = _INDEX_MEMO[lints] = RegistryIndex(lints)
    return index


#: The package-wide registry; populated on import of :mod:`repro.lint`.
REGISTRY = LintRegistry()
