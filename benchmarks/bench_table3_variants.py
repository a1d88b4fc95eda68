"""Table 3 — subject value variant strategies found in the corpus."""

from repro.analysis.fields import find_subject_variants, variant_strategy_counts
from repro.uni.variants import VariantStrategy, classify_variant_pair

#: The paper's curated Table 3 examples, re-verified every run.
PAPER_EXAMPLES = [
    ("Samco Autotechnik GmbH", "SAMCO Autotechnik GmbH", VariantStrategy.CASE_CONVERSION),
    ("RWE Energie, s.r.o.", "RWE Energie, a.s.", VariantStrategy.ABBREVIATION),
    ("PEDDY SHIELD ", "Peddy Shield", VariantStrategy.WHITESPACE_VARIATION),
    ("株式会社 中国銀行", "株式会社　中国銀行", VariantStrategy.WHITESPACE_VARIATION),
    ("St�ri AG", "Störi AG", VariantStrategy.ILLEGAL_REPLACEMENT),
]


def test_table3_variants(corpus, write_output):
    pairs = find_subject_variants(corpus)
    counts = variant_strategy_counts(pairs)
    lines = [
        "Table 3: Value variant strategies in Subject fields",
        f"{'Strategy':<44}{'Pairs found':>12}",
    ]
    for strategy in VariantStrategy:
        lines.append(f"{strategy.value:<44}{counts.get(strategy, 0):>12}")
    lines += ["", "Example pairs detected in the corpus:"]
    for pair in pairs[:6]:
        lines.append(f"  [{pair.strategy.name}] {pair.a!r} ~ {pair.b!r}")
    lines += ["", "Paper's curated examples re-verified:"]
    for a, b, expected in PAPER_EXAMPLES:
        got = classify_variant_pair(a, b)
        lines.append(f"  {a!r} ~ {b!r} -> {got.name if got else 'NONE'}")
        assert got == expected
    write_output("table3_variants", lines)
    assert pairs  # Variants surface in the corpus subject pool.
