"""Tier-1 twin of the paper-artifact gate, at a small committed scale.

``pytest benchmarks`` regenerates every paper artifact at the default
scale and CI fails on any drift.  This test regenerates the artifacts
the linter's verdicts drive — Table 1, Table 11, Figure 4 and the three
ablations — through the same renderers (:mod:`repro.analysis.artifacts`)
over a corpus of about 3,500 certificates, and compares them byte for
byte with the copies committed under ``tests/analysis/artifacts/``.  A
decode, lint or fold change that moves a verdict shows here, inside the
tier-1 run.

After a deliberate change to an artifact, rewrite the copies with::

    PYTHONPATH=src python -m tests.analysis.test_artifact_twin --write

and list every moved file in CHANGES.md.
"""

import pathlib
import sys

import pytest

from repro.analysis.artifacts import (
    ablation_effective_dates,
    ablation_new_lints,
    ablation_severity,
    fig4_lines,
    table1_lines,
    table11_lines,
)
from repro.analysis.compliance import build_table1, lint_corpus, top_lints
from repro.analysis.fields import field_matrix
from repro.ct.corpus import CorpusGenerator

SEED = 2025
SCALE = 1 / 10_000
ARTIFACT_DIR = pathlib.Path(__file__).with_name("artifacts")


def render() -> dict[str, str]:
    """Each artifact's file name and text, regenerated now."""
    corpus = CorpusGenerator(seed=SEED, scale=SCALE).generate()
    reports = lint_corpus(corpus)
    artifacts = {
        "table1_taxonomy": table1_lines(corpus, build_table1(corpus, reports)),
        "table11_top_lints": table11_lines(top_lints(reports, 25)),
        "fig4_field_matrix": fig4_lines(field_matrix(corpus, reports, min_certs=20)),
        "ablation_new_lints": ablation_new_lints(corpus)[0],
        "ablation_effective_dates": ablation_effective_dates(corpus)[0],
        "ablation_severity": ablation_severity(corpus)[0],
    }
    return {f"{name}.txt": "\n".join(lines) + "\n" for name, lines in artifacts.items()}


@pytest.fixture(scope="module")
def rendered():
    return render()


@pytest.mark.parametrize(
    "name",
    [
        "table1_taxonomy.txt",
        "table11_top_lints.txt",
        "fig4_field_matrix.txt",
        "ablation_new_lints.txt",
        "ablation_effective_dates.txt",
        "ablation_severity.txt",
    ],
)
def test_artifact_is_byte_identical(rendered, name):
    committed = (ARTIFACT_DIR / name).read_text(encoding="utf-8")
    assert rendered[name] == committed


def test_every_committed_artifact_is_checked(rendered):
    assert sorted(path.name for path in ARTIFACT_DIR.glob("*.txt")) == sorted(rendered)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python -m {__spec__.name} --write")
    ARTIFACT_DIR.mkdir(exist_ok=True)
    for file_name, text in render().items():
        (ARTIFACT_DIR / file_name).write_text(text, encoding="utf-8")
        print(f"wrote {ARTIFACT_DIR / file_name}")
