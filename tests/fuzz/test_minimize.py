"""Minimizer contract tests: cell preservation and idempotence."""

import random

import pytest

from repro.asn1.tags import UniversalTag
from repro.fuzz.minimize import minimize, minimize_spec
from repro.fuzz.mutators import (
    MutantSpec,
    Mutation,
    apply_mutations,
    sample_mutations,
)
from repro.fuzz.oracle import evaluate

UTF8 = int(UniversalTag.UTF8_STRING)
IA5 = int(UniversalTag.IA5_STRING)

DN_SEED = MutantSpec(
    context="dn", field="subject:CN", tag=UTF8, value=b"Te-st"
)
GN_SEED = MutantSpec(
    context="gn", field="san:dns", tag=IA5, value=b"test.com"
)


class TestCellPreservation:
    def test_minimized_reproduces_parent_cell_exactly(self):
        # The acceptance property: every minimized witness reproduces
        # the exact disagreement vector (and fingerprint) of its parent
        # mutant — across a spread of random mutation stacks.
        rng = random.Random(99)
        checked = 0
        for _ in range(40):
            seed = DN_SEED if rng.random() < 0.7 else GN_SEED
            mutations = sample_mutations(rng, seed, 1 + rng.randrange(3))
            parent = evaluate(apply_mutations(seed, mutations))
            minimized, observation = minimize(seed, mutations)
            assert observation.key == parent.key
            assert evaluate(minimized).key == parent.key
            checked += 1
        assert checked == 40

    def test_redundant_mutations_are_dropped(self):
        # Two stacked flips where only the second matters: the first
        # must not survive minimization.
        mutations = [
            Mutation(op="byte-flip", params=(0, ord("T"))),  # no-op flip
            Mutation(op="byte-flip", params=(1, 0xFF)),
        ]
        minimized, _ = minimize(DN_SEED, mutations)
        assert len(minimized.ops) <= 1

    def test_value_is_shrunk(self):
        # A long value whose only interesting byte is the high byte:
        # ddmin should strip (most of) the ASCII padding.
        seed = MutantSpec(
            context="dn",
            field="subject:CN",
            tag=IA5,
            value=b"aaaaaaaaaaaaaaaa\xffaaaaaaaaaaaaaaaa",
        )
        minimized, observation = minimize_spec(seed)
        assert observation.key == evaluate(seed).key
        assert len(minimized.value) < len(seed.value)


class TestIdempotence:
    def test_minimize_spec_is_idempotent(self):
        rng = random.Random(4242)
        for _ in range(25):
            seed = DN_SEED if rng.random() < 0.7 else GN_SEED
            mutations = sample_mutations(rng, seed, 1 + rng.randrange(3))
            once, first = minimize(seed, mutations)
            twice, second = minimize_spec(once)
            assert twice.value == once.value
            assert twice.tag == once.tag
            assert second.key == first.key

    def test_empty_mutation_list_minimizes_seed_itself(self):
        minimized, observation = minimize(DN_SEED, [])
        assert observation.key == evaluate(DN_SEED).key
        # "Te-st" is homogeneous: any single char preserves the
        # all-agree cell, so ddmin shrinks it to one byte.
        assert len(minimized.value) <= len(DN_SEED.value)
