"""Self-tests for the staticcheck analyzers over planted fixtures.

``fixtures/bad_lints.py`` plants exactly one violation per checker
group; ``fixtures/clean_lints.py`` is the repaired twin.  Each positive
test asserts its checker fires *exactly once*, and the negative tests
assert the clean module is silent.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.staticcheck import (
    SourceIndex,
    check_cache_safety,
    check_determinism,
    check_exception_hygiene,
)

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad_lints.py"
CLEAN = FIXTURES / "clean_lints.py"


@pytest.fixture()
def index():
    return SourceIndex(repo_root=FIXTURES)


class TestPlantedViolations:
    def test_cache_mutation_fires_once(self, index):
        findings = check_cache_safety([BAD], index)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.severity == "error"
        assert finding.anchor == "_mutating_check"
        assert ".append()" in finding.message

    def test_bare_except_fires_once(self, index):
        findings = check_exception_hygiene([BAD], index)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.severity == "error"
        assert finding.anchor == "_sloppy_parse"
        assert "bare except" in finding.message

    def test_random_call_fires_once(self, index):
        findings = check_determinism([BAD], index)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.severity == "error"
        assert finding.anchor == "random"
        assert "nondeterministic" in finding.message

    def test_findings_follow_line_drift(self, index, tmp_path):
        """Prepending lines moves every lineno and nothing else."""
        drifted = tmp_path / "bad_lints.py"
        drifted.write_text(
            "# pad\n# pad\n# pad\n" + BAD.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        drifted_index = SourceIndex(repo_root=tmp_path)

        for checker in (
            check_cache_safety,
            check_exception_hygiene,
            check_determinism,
        ):
            (original,) = checker([BAD], index)
            (moved,) = checker([drifted], drifted_index)
            assert moved == dataclasses.replace(original, line=original.line + 3)


class TestCleanFixture:
    def test_every_checker_is_silent(self, index):
        assert check_cache_safety([CLEAN], index) == []
        assert check_exception_hygiene([CLEAN], index) == []
        assert check_determinism([CLEAN], index) == []


class TestSeededRandomAllowance:
    def test_seeded_random_allowance(self, index, tmp_path):
        """The repro.fuzz scope permits random.Random(seed) — only that."""
        module = tmp_path / "fuzzish.py"
        module.write_text(
            "import random\n"
            "def campaign(seed):\n"
            "    rng = random.Random(seed)\n"
            "    kw = random.Random(x=seed)\n"
            "    bad = random.Random()\n"
            "    worse = random.random()\n"
            "    return rng, kw, bad, worse\n",
            encoding="utf-8",
        )
        scoped_index = SourceIndex(repo_root=tmp_path)
        # Strict mode (lint bodies): all four calls are hazards.
        strict = check_determinism([module], scoped_index)
        assert len(strict) == 4
        # Fuzz mode: the two seeded constructors are exempt; the
        # zero-argument constructor and the module-level helper stay.
        relaxed = check_determinism(
            [module], scoped_index, allow_seeded_random=True
        )
        assert len(relaxed) == 2
        assert all("nondeterministic" in f.message for f in relaxed)
        assert sorted(f.line for f in relaxed) == [5, 6]

    def test_seeded_random_allowance_keeps_import_ban(self, index, tmp_path):
        """`from random import Random` stays banned even in fuzz scope."""
        module = tmp_path / "fuzzish_import.py"
        module.write_text("from random import Random\n", encoding="utf-8")
        scoped_index = SourceIndex(repo_root=tmp_path)
        findings = check_determinism(
            [module], scoped_index, allow_seeded_random=True
        )
        assert len(findings) == 1
        assert "hides nondeterministic" in findings[0].message
