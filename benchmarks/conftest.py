"""Shared fixtures for the table/figure regeneration benchmarks.

The corpus is generated once per session at ``REPRO_BENCH_SCALE``
(default 1/2000 of the paper's 34.8 M Unicerts, i.e. ~17.4 K certs).
Every bench regenerates its table/figure from this corpus with the
*measured* pipeline (real linter, real analysis code) and writes the
rendered rows to ``benchmarks/output/``.  The files are deterministic
for a given scale and seed, so a regeneration at the defaults must leave
the committed files unchanged.  Speed is measured by ``perfbench/``.
"""

import os
import pathlib

import pytest

from repro.analysis.compliance import lint_corpus
from repro.ct.corpus import CorpusGenerator

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", 1 / 2000))
SEED = int(os.environ.get("REPRO_BENCH_SEED", 2025))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def corpus():
    return CorpusGenerator(seed=SEED, scale=SCALE).generate()


@pytest.fixture(scope="session")
def reports(corpus):
    return lint_corpus(corpus)


@pytest.fixture(scope="session")
def write_output():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _write(name: str, lines: list[str]) -> None:
        text = "\n".join(lines) + "\n"
        (OUTPUT_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        print("\n" + text)

    return _write
