"""Scan a synthetic CT corpus with the Unicert linter (RQ1 pipeline).

Generates a scaled-down replica of the paper's CT dataset, runs all 95
lints over every certificate, and prints the noncompliance landscape —
the Section 4 measurement, end to end.

Run with:  python examples/lint_ct_corpus.py [scale]
"""

import sys

from repro.analysis.compliance import build_table1, lint_corpus, top_lints
from repro.analysis.issuers import issuer_table
from repro.ct.corpus import CorpusGenerator
from repro.lint.framework import NoncomplianceType


def main(scale: float = 1 / 10000) -> None:
    print(f"generating corpus at scale {scale:g} ...")
    corpus = CorpusGenerator(seed=2025, scale=scale).generate()
    print(f"  {len(corpus.records)} Unicerts from "
          f"{len(corpus.by_issuer())} issuer organizations")

    print("linting (95 lints per certificate) ...")
    reports = lint_corpus(corpus)
    table = build_table1(corpus, reports)

    print(f"\nnoncompliant: {table.nc_certs} ({table.nc_rate:.2%}; paper: 0.72%)")
    print(f"trusted share of NC: {table.trusted_share:.1%} (paper: 65.3%)")
    print(f"ignoring effective dates: {table.nc_certs_ignoring_dates} "
          f"(the paper's 249K -> 1.8M footnote)")

    print("\nby noncompliance type:")
    for nc_type in NoncomplianceType:
        row = table.rows[nc_type]
        print(f"  {nc_type.value:<22} {row.nc_certs:>6} certs "
              f"({row.nc_lints_total} lints fired)")

    print("\ntop 10 lints:")
    for name, count in top_lints(reports, count=10):
        print(f"  {count:>6}  {name}")

    print("\ntop issuers by noncompliant Unicerts:")
    head, other = issuer_table(corpus, reports)
    for row in head[:8]:
        print(f"  {row.noncompliant:>6}  {row.org} ({row.nc_rate:.1%} of its Unicerts)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 1 / 10000)
