"""Tests for the Table 3 subject-variant strategies."""

import pytest

from repro.uni.variants import (
    VariantStrategy,
    are_identity_equivalent,
    classify_variant_pair,
    generate_variants,
)

# Pairs taken directly from the paper's Table 3.
TABLE3_PAIRS = [
    ("Samco Autotechnik GmbH", "SAMCO Autotechnik GmbH", VariantStrategy.CASE_CONVERSION),
    (
        "NOWOCZESNASTODOŁA.PL SP. Z O.O.",
        "nowoczesnaSTODOŁA.pl sp. z o.o.",
        VariantStrategy.CASE_CONVERSION,
    ),
    ("RWE Energie, s.r.o.", "RWE Energie, a.s.", VariantStrategy.ABBREVIATION),
    (
        "PEDDY SHIELD ",
        "Peddy Shield",
        VariantStrategy.WHITESPACE_VARIATION,
    ),
    (
        "株式会社 中国銀行",
        "株式会社　中国銀行",
        VariantStrategy.WHITESPACE_VARIATION,
    ),
    (
        "Vegas.XXX®™ (VegasLLC)",
        "Vegas.XXX™® (VegasLLC)",
        VariantStrategy.RESEMBLING_SUBSTITUTION,
    ),
    ("St�ri AG", "Störi AG", VariantStrategy.ILLEGAL_REPLACEMENT),
]


class TestClassification:
    @pytest.mark.parametrize("a,b,expected", TABLE3_PAIRS)
    def test_table3_pairs(self, a, b, expected):
        assert classify_variant_pair(a, b) == expected

    def test_identical_is_none(self):
        assert classify_variant_pair("Acme", "Acme") is None

    def test_unrelated_is_none(self):
        assert classify_variant_pair("Acme Corp", "Globex Inc") is None

    def test_nonprintable_addition(self):
        assert (
            classify_variant_pair("Evil Entity", "Evil\x00 Entity")
            == VariantStrategy.NON_PRINTABLE_ADDITION
        )

    def test_symmetric(self):
        for a, b, _ in TABLE3_PAIRS:
            assert (classify_variant_pair(a, b) is None) == (
                classify_variant_pair(b, a) is None
            )

    def test_country_name_case(self):
        assert classify_variant_pair("GERMANY", "Germany") == VariantStrategy.CASE_CONVERSION


class TestEquivalence:
    def test_equivalent(self):
        assert are_identity_equivalent("Acme Inc", "ACME INC")

    def test_not_equivalent(self):
        assert not are_identity_equivalent("Acme Inc", "Other LLC")

    def test_reflexive(self):
        assert are_identity_equivalent("x", "x")


class TestGeneration:
    def test_generated_variants_classify_back(self):
        subject = "Evil Entity Ltd"
        for strategy, variant in generate_variants(subject).items():
            assert variant != subject
            got = classify_variant_pair(subject, variant)
            assert got is not None, (strategy, variant)

    def test_case_variant_present(self):
        variants = generate_variants("Acme Corp")
        assert VariantStrategy.CASE_CONVERSION in variants

    def test_whitespace_variant_present(self):
        variants = generate_variants("Acme Corp")
        assert VariantStrategy.WHITESPACE_VARIATION in variants

    def test_all_strategies_possible(self):
        variants = generate_variants("peddy shield co")
        assert len(variants) >= 4
