"""Tests for the frozen constraint rules and the extraction pipeline."""

from repro.lint.constraints import CONSTRAINT_RULES, rules_for_lint, _FIELD_BY_SCOPE
from repro.lint.framework import REGISTRY
from repro.lint.rfc_analyzer import (
    SPEC_LIBRARY,
    extract_constraint_rules,
    filter_sections,
    EXTRACTION_KEYWORDS,
    SUPPLEMENTAL_DOCUMENTS,
    sections_for_rule,
)
from repro.lint.compiled import SCOPES


class TestConstraintRules:
    def test_one_rule_per_lint(self):
        assert len(CONSTRAINT_RULES) == len(REGISTRY) == 95

    def test_rule_ids_unique_and_ordered(self):
        ids = [rule.rule_id for rule in CONSTRAINT_RULES]
        assert len(set(ids)) == 95
        assert ids == sorted(ids)

    def test_fifty_new(self):
        assert sum(1 for rule in CONSTRAINT_RULES if rule.new) == 50

    def test_requirement_levels_match_severity(self):
        from repro.lint.framework import Severity

        for rule in CONSTRAINT_RULES:
            severity = REGISTRY.get(rule.lint_name).metadata.severity
            expected = "MUST" if severity is Severity.ERROR else "SHOULD"
            assert rule.requirement_level == expected

    def test_lookup(self):
        rule = rules_for_lint("e_rfc_dns_idn_a2u_unpermitted_unichar")
        assert rule.new
        assert "IDNA" in rule.source_document

    def test_structures_use_arrow_notation(self):
        # The Appendix C prompt format: layers joined by '-->'.
        for rule in CONSTRAINT_RULES:
            assert "-->" in rule.structures

    def test_every_rule_has_source_sections(self):
        for rule in CONSTRAINT_RULES:
            assert sections_for_rule(rule), rule.lint_name

    def test_field_follows_the_scope_not_the_name(self):
        # Each name below misleads a substring match: "jurisdiction"
        # holds "uri", "ian_dns" holds "dns", a subject email attribute
        # holds "email".  The field comes from the lint's scope.
        expected = {
            "e_subject_jurisdiction_locality_not_printable_or_utf8": "Subject",
            "e_subject_jurisdiction_state_not_printable_or_utf8": "Subject",
            "e_subject_jurisdiction_country_not_printable": "Subject",
            "e_subject_email_not_ia5": "Subject",
            "e_ext_ian_dns_not_ia5string": "IssuerAltName",
        }
        for name, field in expected.items():
            assert rules_for_lint(name).field == field, name
        dn = "DistinguishedName-->RDNSequence-->DirectoryString"
        assert rules_for_lint("e_subject_email_not_ia5").structures == dn

    def test_every_scope_files_under_a_field(self):
        # Tuple scopes ``(side, oid)`` are filed under their side.
        assert set(_FIELD_BY_SCOPE) == set(SCOPES) | {"s", "i"}


class TestExtractionPipeline:
    def test_keyword_filter_matches_most_sections(self):
        matched = filter_sections()
        assert len(matched) == len(SPEC_LIBRARY)

    def test_supplemental_brs_included_even_without_keywords(self):
        matched = filter_sections(keywords=["zzz-no-match"])
        assert {s.document for s in matched} == set(SUPPLEMENTAL_DOCUMENTS)

    def test_full_extraction_regenerates_95(self):
        assert len(extract_constraint_rules()) == 95

    def test_narrow_keywords_extract_subset(self):
        rules = extract_constraint_rules(keywords=["IDN-only-keyword-zzz"])
        assert 0 < len(rules) < 95  # Only supplemental-backed rules.

    def test_paper_keywords_present(self):
        for keyword in ("NFC", "IDN", "Unicode", "PrintableString"):
            assert keyword in EXTRACTION_KEYWORDS
