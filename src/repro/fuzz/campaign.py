"""The coverage-guided campaign driver: mutate → evaluate → minimize → write.

A campaign is fully determined by ``(seed, budget, max_ops)``: one
explicitly seeded :class:`random.Random` drives every sampling decision
in the parent process, mutant batches are evaluated in generation order
(inline, or fanned out over a :class:`repro.lint.parallel.LintPool`
whose futures are *collected in submission order*), and minimization
and witness writing happen in the parent.  The result: byte-identical
witness corpora for every ``--jobs`` value — the same discipline as the
corpus lint pipeline.

Novelty scoring is the coverage map of :mod:`repro.fuzz.oracle`, seeded
from the Tables 4/5 baseline probes; only novel cells on which at least
two libraries disagree are minimized and persisted.  Per-stage wall/CPU
accounting lands on an injectable :class:`repro.engine.stats.EngineStats`
(``mutate`` / ``evaluate`` / ``execute`` / ``minimize`` / ``write``),
mirroring the staged engine's bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..asn1.tags import UniversalTag
from .minimize import minimize
from .mutators import (
    DN_STRING_TAGS,
    Mutation,
    MutantSpec,
    apply_mutations,
    encode_text,
    sample_mutations,
)
from .oracle import baseline_coverage, evaluate_batch
from .witness import Witness, witness_from_spec, write_witness

#: Compliant default value for DN seeds (hyphen keeps PrintableString legal).
SEED_DN_TEXT = "Te-st"

#: Compliant defaults for the GeneralName seeds (paper rule iii).
SEED_GN_VALUES = (
    ("san:dns", "test.com"),
    ("san:rfc822", "user@test.com"),
    ("san:uri", "http://test.com/path"),
)


def default_seeds() -> tuple[MutantSpec, ...]:
    """The campaign's seed corpus: one compliant spec per scenario.

    Five DN seeds (one per Table 4 string type, each carrying the
    compliant default encoded under that type's standard method) plus
    three GN seeds (DNS/RFC822/URI alternatives, IA5String on the
    wire) — the same construction-rule-(iii) substrate as
    :class:`repro.testgen.generator.TestCertGenerator`.
    """
    seeds = [
        MutantSpec(
            context="dn",
            field="subject:CN",
            tag=tag,
            value=encode_text(tag, SEED_DN_TEXT),
        )
        for tag in DN_STRING_TAGS
    ]
    seeds.extend(
        MutantSpec(
            context="gn",
            field=field_label,
            tag=int(UniversalTag.IA5_STRING),
            value=text.encode("ascii"),
        )
        for field_label, text in SEED_GN_VALUES
    )
    return tuple(seeds)


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign parameters (the CLI's ``repro fuzz`` surface)."""

    seed: int = 2025
    budget: int = 10_000  # mutants to evaluate
    jobs: int | None = None  # worker processes (None/1 = inline)
    batch: int = 250  # mutants per evaluation batch
    max_ops: int = 3  # stacked mutations per mutant
    witness_dir: str | None = None  # where minimized witnesses land
    max_witnesses: int | None = None  # cap on written witnesses


@dataclass
class CampaignResult:
    """What one campaign run produced."""

    config: FuzzConfig
    mutants: int = 0
    baseline_cells: int = 0
    novel_cells: int = 0
    novel_disagreements: int = 0
    witnesses: list[Witness] = field(default_factory=list)
    witness_paths: list[str] = field(default_factory=list)

    @property
    def novel_per_10k(self) -> float:
        """Novel cells per 10k mutants — the campaign's yield metric."""
        if not self.mutants:
            return 0.0
        return self.novel_cells * 10_000 / self.mutants


def _generate_batch(
    rng: random.Random,
    seeds: tuple[MutantSpec, ...],
    count: int,
    max_ops: int,
) -> list[tuple[MutantSpec, list[Mutation], MutantSpec]]:
    """Sample ``count`` mutants: (seed, mutations, mutated spec) triples."""
    batch = []
    for _ in range(count):
        seed = seeds[rng.randrange(len(seeds))]
        mutations = sample_mutations(rng, seed, 1 + rng.randrange(max_ops))
        batch.append((seed, mutations, apply_mutations(seed, mutations)))
    return batch


def run_fuzz_campaign(config: FuzzConfig, stats=None, pool=None) -> CampaignResult:
    """Execute one deterministic fuzzing campaign.

    ``stats`` is an optional :class:`repro.engine.stats.EngineStats`; ``pool``
    an optional long-lived :class:`repro.lint.parallel.LintPool` to
    reuse (otherwise one is created when ``jobs > 1`` and torn down at
    the end).  Interesting mutants are minimized and — when
    ``config.witness_dir`` is set — written as witness files.
    """
    from ..engine.stats import EngineStats

    stats = stats if stats is not None else EngineStats()
    rng = random.Random(config.seed)
    seeds = default_seeds()
    coverage = baseline_coverage(extra=seeds)
    baseline_disagreements = coverage.disagreement_cells
    result = CampaignResult(config=config, baseline_cells=len(coverage))

    jobs = 1 if config.jobs is None else max(int(config.jobs), 1)
    owned_pool = False
    if jobs > 1 and pool is None:
        from ..lint.parallel import LintPool

        pool = LintPool(jobs)
        owned_pool = True

    def batches():
        remaining = config.budget
        while remaining > 0:
            size = min(config.batch, remaining)
            remaining -= size
            # Time the generation only — yielding inside the timing
            # block would keep the timer open across the consumer's
            # evaluate/fold work for the batch.
            with stats.time("mutate", items=size):
                batch = _generate_batch(rng, seeds, size, config.max_ops)
            yield batch

    def fold(batch, observations) -> None:
        for (seed, mutations, _spec), observation in zip(batch, observations):
            result.mutants += 1
            if not coverage.observe(observation):
                continue
            result.novel_cells += 1
            if not observation.disagreement:
                continue
            result.novel_disagreements += 1
            if config.witness_dir is None and config.max_witnesses == 0:
                continue
            if (
                config.max_witnesses is not None
                and len(result.witnesses) >= config.max_witnesses
            ):
                continue
            with stats.time("minimize", items=1):
                minimized, min_obs = minimize(seed, mutations)
            witness = witness_from_spec(minimized, min_obs, config.seed)
            result.witnesses.append(witness)
            if config.witness_dir is not None:
                with stats.time("write", items=1):
                    result.witness_paths.append(
                        write_witness(config.witness_dir, witness)
                    )

    try:
        if jobs <= 1:
            for batch in batches():
                with stats.time("evaluate", items=len(batch)):
                    observations = evaluate_batch([spec for _, _, spec in batch])
                fold(batch, observations)
        else:
            # Keep a bounded window of outstanding futures and *collect
            # in submission order* — completion order varies with
            # scheduling, fold order must not.
            from collections import deque

            window: deque = deque()
            depth = jobs * 2
            with stats.time("execute"):
                for batch in batches():
                    window.append(
                        (batch, pool.submit_fuzz(tuple(s for _, _, s in batch)))
                    )
                    if len(window) >= depth:
                        done_batch, future = window.popleft()
                        observations, timings = future.result()
                        stats.merge_timings(timings, worker=True)
                        fold(done_batch, observations)
                while window:
                    done_batch, future = window.popleft()
                    observations, timings = future.result()
                    stats.merge_timings(timings, worker=True)
                    fold(done_batch, observations)
    finally:
        if owned_pool:
            pool.shutdown(wait=False)

    stats.jobs = jobs
    result.novel_disagreements = coverage.disagreement_cells - baseline_disagreements
    return result
