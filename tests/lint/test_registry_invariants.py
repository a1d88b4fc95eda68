"""Registry self-test: the invariants the corpus results depend on.

The paper's Tables 1/11 assume 95 constraint rules, 50 of them new, each
registered exactly once with a citation that resolves to its
:class:`ConstraintRule` row.  These tests run at import time over the
*real* registry — both directly and through the
``repro.staticcheck.registry`` checker — so a drive-by edit to a lint
module cannot silently desynchronize the registry from the paper's
rule table.
"""

import datetime as dt

import pytest

from repro.lint import REGISTRY
from repro.lint.compiled import ScanSpec
from repro.lint.constraints import CONSTRAINT_RULES, rules_for_lint
from repro.lint.framework import FunctionLint, Severity
from repro.staticcheck import SourceIndex, check_registry_invariants


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

    def test_severity_prefix_mismatches_are_pinned(self, lints):
        # One deliberate exception: the CA/B CN-in-SAN rule keeps Zlint's
        # historical ``w_`` name although the BRs make it a MUST.  The
        # staticcheck baseline accepts it; anything else is a regression.
        mismatched = {
            lint.metadata.name
            for lint in lints
            if (lint.metadata.name.startswith("e_")
                and lint.metadata.severity is not Severity.ERROR)
            or (lint.metadata.name.startswith("w_")
                and lint.metadata.severity is Severity.ERROR)
        }
        assert mismatched == {"w_cab_subject_common_name_not_in_san"}


class TestInvariantChecker:
    """The staticcheck registry checker over the live registry."""

    @pytest.fixture(scope="class")
    def findings(self, lints):
        return check_registry_invariants(
            lints, SourceIndex(), resolve_rule=rules_for_lint
        )

    def test_only_the_accepted_findings_fire(self, findings):
        # The three effective-date floors and the severity-prefix
        # exception above are reviewed and baselined; any new finding
        # here means the registry drifted.
        assert sorted((f.anchor, f.message.split(" ", 1)[0]) for f in findings) == [
            ("e_dns_label_hyphen_at_edge", "effective_date"),
            ("e_smtp_utf8_mailbox_not_utf8string", "effective_date"),
            ("w_cab_subject_common_name_not_in_san", "name"),
            ("w_rfc_ext_cp_explicit_text_not_utf8", "effective_date"),
        ]

    def test_no_duplicate_or_unresolvable_citation_findings(self, findings):
        for finding in findings:
            assert "duplicate" not in finding.message
            assert "does not resolve" not in finding.message
