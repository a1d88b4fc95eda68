"""Verdict templates: the memoized report skeletons of the compiled plan.

``run_lints`` builds each report from a template keyed by the family
signature and the projected slot masks (:meth:`CompiledPlan.template`),
running only the rows the template leaves dynamic.  These tests pin it
to the oracle under random schedules, effective-date cut points and
registrations, and check that shared template state cannot leak between
reports or grow without bound.
"""

import base64
import dataclasses
import datetime as dt
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.oid import OID_COMMON_NAME
from repro.ct.corpus import CorpusGenerator
from repro.lint.framework import (
    REGISTRY,
    FunctionLint,
    LintMetadata,
    LintStatus,
    NoncomplianceType,
    RegistryIndex,
    Severity,
    Source,
)
from repro.lint.runner import run_lints, ReportTally, tally
from repro.lint import compiled
from repro.lint.reference import reference_run_lints
from repro.lint.structure import _check_extra_cn
from repro.x509.certificate import Certificate

from ..registry_helpers import registered

WITNESS_DIR = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "witnesses"

#: Effective date of the planted lints: later than every registered one,
#: so it adds a cut point of its own.
PLANTED_DATE = dt.datetime(2030, 1, 1)


def _witness_ders() -> list[bytes]:
    files = sorted(WITNESS_DIR.glob("cell-*.json"))
    assert len(files) >= 97
    return [base64.b64decode(json.loads(p.read_text())["der_b64"]) for p in files]


#: ~170 generated certificates followed by the committed fuzz witnesses.
CORPUS = CorpusGenerator(seed=11, scale=1 / 200000).generate()
DERS = [r.certificate.to_der() for r in CORPUS.records] + _witness_ders()
LINTS = REGISTRY.snapshot()


def _cut_points() -> list[dt.datetime]:
    """An instant on either side of every effective date."""
    dates = {lint.metadata.effective_date for lint in LINTS} | {PLANTED_DATE}
    return sorted(
        when for date in dates for when in (date - dt.timedelta(seconds=1), date)
    )


def _shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


def _rescan_tally(report) -> ReportTally:
    """A report's tally by a plain scan of every result."""
    findings = [r for r in report.results if r.is_finding]
    suppressed = any(r.status is LintStatus.NOT_EFFECTIVE for r in report.results)
    by_value = lambda t: t.value  # noqa: E731
    return ReportTally(
        bool(findings),
        bool(findings) or suppressed,
        tuple(sorted({r.lint.name for r in findings})),
        tuple(sorted({r.lint.nc_type for r in findings}, key=by_value)),
        tuple(
            sorted(
                {r.lint.nc_type for r in findings if r.status is LintStatus.ERROR},
                key=by_value,
            )
        ),
        tuple(
            sorted(
                {r.lint.nc_type for r in findings if r.status is LintStatus.WARN},
                key=by_value,
            )
        ),
    )


def _metadata(name: str, severity: Severity) -> LintMetadata:
    return LintMetadata(
        name=name,
        description="",
        citation="",
        source=Source.COMMUNITY,
        severity=severity,
        nc_type=NoncomplianceType.INVALID_STRUCTURE,
        effective_date=PLANTED_DATE,
    )


def _planted_compiled() -> FunctionLint:
    """A new lint the plan compiles: a known check and kernel, new name."""
    return FunctionLint(
        _metadata("w_test_template_extra_cn", Severity.WARN),
        lambda cert: bool(cert.subject_common_names),
        _check_extra_cn,
        scan=compiled.ScanSpec(("s", OID_COMMON_NAME.dotted), ("EXTRA_CN",)),
    )


def _planted_scopeless() -> FunctionLint:
    """A new lint the plan cannot classify: it always runs its check."""
    return FunctionLint(
        _metadata("e_test_template_short_subject", Severity.ERROR),
        lambda cert: True,
        lambda cert: (
            len(cert.subject.attributes()) > 2,
            "short subject",
        ),
    )


def _assert_matches_oracle(der, issued_at, lints, respect):
    # Fresh objects per path: no memoized view may carry over.
    reference = reference_run_lints(
        Certificate.from_der(der),
        issued_at=issued_at,
        lints=lints,
        respect_effective_dates=respect,
    )
    fast = run_lints(
        Certificate.from_der(der),
        issued_at=issued_at,
        lints=lints,
        respect_effective_dates=respect,
    )
    # Tallied before its results are read (from the rows that ran), then
    # against a rescan of the results and the oracle's tally.
    counts = tally(fast)
    assert counts == _rescan_tally(fast) == tally(reference)
    assert _shape(fast) == _shape(reference)
    return fast


class TestOracleProperty:
    @settings(deadline=None, max_examples=150)
    @given(
        der=st.sampled_from(DERS),
        subset=st.none()
        | st.lists(st.sampled_from(LINTS), unique_by=id, max_size=len(LINTS)),
        respect=st.booleans(),
        issued_at=st.none() | st.sampled_from(_cut_points()),
        plant=st.sampled_from([None, "compiled", "scopeless"]),
    )
    def test_run_lints_equals_oracle(self, der, subset, respect, issued_at, plant):
        lints = None if subset is None else tuple(subset)
        _assert_matches_oracle(der, issued_at, lints, respect)
        if plant is None:
            return
        lint = _planted_compiled() if plant == "compiled" else _planted_scopeless()
        with registered(lint):
            report = _assert_matches_oracle(der, issued_at, None, respect)
            if lints is not None:
                _assert_matches_oracle(der, issued_at, lints + (lint,), respect)
        after = _assert_matches_oracle(der, issued_at, None, respect)
        assert lint.metadata.name not in {r.lint.name for r in after.results}
        assert len(after.results) <= len(report.results)


class TestSharedState:
    def test_reports_from_one_template_have_distinct_lists(self):
        der = DERS[0]
        for lints in (None, LINTS[:20]):
            first = run_lints(Certificate.from_der(der), lints=lints)
            second = run_lints(Certificate.from_der(der), lints=lints)
            assert first.results is not second.results
            assert _shape(first) == _shape(second)
            first.results.append(first.results[0])
            assert len(second.results) == len(first.results) - 1

    def test_tally_follows_results_changed_after_reading(self):
        der = next(
            d for d in DERS if tally(run_lints(Certificate.from_der(d))).noncompliant
        )
        report = run_lints(Certificate.from_der(der))
        finding = next(r for r in report.results if r.is_finding)
        report.results[:] = [r for r in report.results if not r.is_finding]
        assert tally(report) == _rescan_tally(report)
        assert finding.lint.name not in tally(report).names
        report.results.append(finding)
        assert tally(report) == _rescan_tally(report)
        assert finding.lint.name in tally(report).names

    def test_pass_results_are_shared_and_frozen(self):
        first = run_lints(Certificate.from_der(DERS[0]))
        second = run_lints(Certificate.from_der(DERS[0]))
        shared = [
            a
            for a, b in zip(first.results, second.results)
            if a is b and a.status is LintStatus.PASS
        ]
        assert shared
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared[0].status = LintStatus.ERROR
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared[0].details = "changed"


class TestMemoCap:
    CAP = 4

    @pytest.fixture()
    def index(self, monkeypatch):
        monkeypatch.setattr(compiled, "_TEMPLATE_MEMO_MAX", self.CAP)
        return RegistryIndex(LINTS)

    def test_synthetic_key_flood_stays_at_cap(self, index):
        plan = index.compiled_plan()
        signature, slots = plan.scan(Certificate.from_der(DERS[0]))
        spare = len(plan.family_bits)
        for value in range(64):
            # A bit no row names: the same rows, a distinct key.
            flooded = signature | 1 << (spare + value)
            built = plan.template(flooded, slots)
            assert len(plan._templates) <= self.CAP
            # A full memo flushes and keeps caching: the key just built
            # is a hit, the very same object.
            assert plan.template(flooded, slots) is built
        for value in range(64):
            signature = 1 << value
            built = plan.live_rows(signature)
            assert len(plan._live) <= self.CAP
            assert plan.live_rows(signature) is built

    def test_capped_plan_reports_match_oracle(self, index):
        for der in DERS[:60] + DERS[-40:]:
            reference = reference_run_lints(Certificate.from_der(der))
            fast = run_lints(Certificate.from_der(der), index=index)
            assert _shape(fast) == _shape(reference)
            assert len(index.compiled_plan()._templates) <= self.CAP
