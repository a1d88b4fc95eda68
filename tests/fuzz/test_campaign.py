"""Campaign driver tests: determinism across seeds, jobs, and replays."""

import hashlib
import os

import pytest

from repro.engine.stats import EngineStats
from repro.fuzz.campaign import FuzzConfig, default_seeds, run_fuzz_campaign
from repro.fuzz.witness import replay_witnesses


def corpus_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("ascii"))
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class TestSeedCorpus:
    def test_default_seeds_cover_both_contexts(self):
        seeds = default_seeds()
        assert len(seeds) == 8
        assert sum(1 for s in seeds if s.context == "dn") == 5
        assert sum(1 for s in seeds if s.context == "gn") == 3
        assert len({s.tag for s in seeds if s.context == "dn"}) == 5


class TestDeterminism:
    def test_same_seed_same_result(self, tmp_path):
        config_a = FuzzConfig(
            seed=11, budget=200, batch=50, witness_dir=str(tmp_path / "a")
        )
        config_b = FuzzConfig(
            seed=11, budget=200, batch=50, witness_dir=str(tmp_path / "b")
        )
        result_a = run_fuzz_campaign(config_a)
        result_b = run_fuzz_campaign(config_b)
        assert result_a.novel_cells == result_b.novel_cells
        assert result_a.mutants == result_b.mutants == 200
        assert corpus_digest(str(tmp_path / "a")) == corpus_digest(
            str(tmp_path / "b")
        )

    def test_different_seed_diverges(self, tmp_path):
        result_a = run_fuzz_campaign(FuzzConfig(seed=1, budget=150, batch=50))
        result_b = run_fuzz_campaign(FuzzConfig(seed=2, budget=150, batch=50))
        # Witness sets are minimized specs; two RNG streams exploring
        # the same space rarely produce identical corpora.
        cells_a = {w.cell for w in result_a.witnesses}
        cells_b = {w.cell for w in result_b.witnesses}
        assert cells_a != cells_b

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_produce_byte_identical_corpus(self, tmp_path, jobs):
        # The acceptance criterion: same --seed/--budget give
        # byte-identical witness corpora at --jobs 1 and --jobs N.
        inline = FuzzConfig(
            seed=5, budget=200, batch=50, jobs=1,
            witness_dir=str(tmp_path / "inline"),
        )
        fanned = FuzzConfig(
            seed=5, budget=200, batch=50, jobs=jobs,
            witness_dir=str(tmp_path / f"jobs{jobs}"),
        )
        result_inline = run_fuzz_campaign(inline)
        result_fanned = run_fuzz_campaign(fanned)
        assert result_inline.novel_cells == result_fanned.novel_cells
        assert corpus_digest(str(tmp_path / "inline")) == corpus_digest(
            str(tmp_path / f"jobs{jobs}")
        )


class TestCampaignAccounting:
    def test_budget_is_exact(self):
        result = run_fuzz_campaign(FuzzConfig(seed=3, budget=130, batch=40))
        assert result.mutants == 130

    def test_novelty_requires_unseen_cells(self):
        # Re-running a campaign against the baseline always rediscovers
        # at least the high-yield corruption cells.
        result = run_fuzz_campaign(FuzzConfig(seed=3, budget=200, batch=50))
        assert result.baseline_cells > 0
        assert result.novel_cells > 0
        assert result.novel_disagreements <= result.novel_cells

    def test_fixed_seed_novelty_is_pinned(self):
        # A mutator, seed-corpus or parser-model change that shifts what
        # this campaign discovers must update these numbers on purpose.
        result = run_fuzz_campaign(
            FuzzConfig(seed=2025, budget=2000, max_witnesses=0)
        )
        assert result.mutants == 2000
        assert result.baseline_cells == 23
        assert result.novel_cells == 74
        assert result.novel_disagreements == 60

    def test_max_witnesses_caps_minimization(self, tmp_path):
        config = FuzzConfig(
            seed=3, budget=200, batch=50,
            witness_dir=str(tmp_path), max_witnesses=2,
        )
        result = run_fuzz_campaign(config)
        assert len(result.witnesses) <= 2
        assert len(os.listdir(tmp_path)) <= 2

    def test_stats_record_stages(self):
        stats = EngineStats()
        run_fuzz_campaign(
            FuzzConfig(seed=3, budget=100, batch=50), stats=stats
        )
        assert stats.timings.items.get("mutate") == 100
        assert stats.timings.items.get("evaluate") == 100


class TestWitnessReplayEndToEnd:
    def test_campaign_witnesses_all_replay(self, tmp_path):
        config = FuzzConfig(
            seed=2025, budget=300, batch=100, witness_dir=str(tmp_path)
        )
        result = run_fuzz_campaign(config)
        assert result.witness_paths  # the campaign found something
        replays = replay_witnesses(str(tmp_path))
        assert len(replays) == len(result.witness_paths)
        failures = [r for r in replays if not r.ok]
        assert not failures, [r.problems for r in failures]
