"""Registry self-test: the invariants the corpus results depend on.

The paper's Tables 1/11 assume 95 constraint rules, 50 of them new, each
registered exactly once with a citation that resolves to its
:class:`ConstraintRule` row.  These tests run over the *real* registry,
so a drive-by edit to a lint module cannot silently desynchronize the
registry from the paper's rule table.  The metadata rules (name prefix,
severity, effective date) are enforced when a :class:`LintMetadata` is
built; the tests below pin that check and its exemptions.
"""

import datetime as dt
import re

import pytest

from repro.lint.framework import (
    REGISTRY,
    _SOURCE_FLOOR,
    METADATA_EXEMPT,
    FunctionLint,
    LintMetadata,
    NoncomplianceType,
    Severity,
    Source,
    metadata_violations,
)
from repro.lint.compiled import ScanSpec
from repro.lint.constraints import CONSTRAINT_RULES, rules_for_lint


@pytest.fixture(scope="module")
def lints():
    return REGISTRY.snapshot()


class TestRegistryShape:
    def test_unique_names(self, lints):
        names = [lint.metadata.name for lint in lints]
        assert len(names) == len(set(names))

    def test_rule_count_matches_paper(self, lints):
        assert len(lints) == 95
        assert len(CONSTRAINT_RULES) == 95

    def test_new_lint_count_matches_paper(self, lints):
        assert sum(1 for lint in lints if lint.metadata.new) == 50

    def test_registry_introspection_hooks_agree(self, lints):
        assert tuple(REGISTRY) == lints
        assert REGISTRY.names() == tuple(l.metadata.name for l in lints)
        assert REGISTRY.items() == tuple(
            (l.metadata.name, l) for l in lints
        )


class TestCitations:
    def test_every_lint_resolves_to_a_constraint_rule(self, lints):
        for lint in lints:
            rule = rules_for_lint(lint.metadata.name)
            assert rule.lint_name == lint.metadata.name

    def test_rule_table_and_registry_are_one_to_one(self, lints):
        assert {r.lint_name for r in CONSTRAINT_RULES} == {
            l.metadata.name for l in lints
        }

    def test_new_flag_agrees_with_rule_table(self, lints):
        for lint in lints:
            assert rules_for_lint(lint.metadata.name).new is lint.metadata.new

    def test_source_document_agrees(self, lints):
        for lint in lints:
            rule = rules_for_lint(lint.metadata.name)
            assert rule.source_document == lint.metadata.source.value


class TestMetadataConsistency:
    def test_every_lint_is_a_function_lint_with_metadata(self, lints):
        for lint in lints:
            assert isinstance(lint, FunctionLint)
            assert lint.metadata.citation
            assert isinstance(lint.metadata.effective_date, dt.datetime)

    def test_every_lint_declares_a_scan_spec(self, lints):
        for lint in lints:
            assert isinstance(lint.scan, ScanSpec), lint.metadata.name

    def test_exempt_set_is_exactly_the_registered_violators(self, lints):
        # A stale pin (an exempt lint that was corrected, or removed)
        # fails here as surely as a new violator fails at import.
        assert {
            lint.metadata.name for lint in lints if metadata_violations(lint.metadata)
        } == METADATA_EXEMPT


def _metadata(name, severity, source=Source.RFC5280, effective=dt.datetime(2019, 1, 1)):
    return LintMetadata(
        name=name,
        description="fixture",
        citation="fixture citation",
        source=source,
        severity=severity,
        nc_type=NoncomplianceType.INVALID_STRUCTURE,
        effective_date=effective,
    )


class TestMetadataRules:
    @pytest.mark.parametrize(
        "name, severity, match",
        [
            ("e_fixture_warn", Severity.WARN, "prefix 'e_'"),
            ("w_fixture_error", Severity.ERROR, "prefix 'w_'"),
            ("fixture_unprefixed", Severity.ERROR, "must start with"),
        ],
    )
    def test_prefix_must_agree_with_severity(self, name, severity, match):
        with pytest.raises(ValueError, match=match):
            _metadata(name, severity)

    @pytest.mark.parametrize(
        "source, floor", sorted(_SOURCE_FLOOR.items(), key=lambda kv: kv[0].name)
    )
    def test_effective_date_may_not_predate_its_source(self, source, floor):
        with pytest.raises(ValueError, match=re.escape(f"predates its source {source.value}")):
            _metadata(
                "e_fixture_backdated",
                Severity.ERROR,
                source=source,
                effective=floor - dt.timedelta(days=1),
            )
        assert _metadata("e_fixture_on_time", Severity.ERROR, source, floor)
