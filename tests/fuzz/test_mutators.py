"""Unit tests for the mutation engine: purity, replayability, coverage."""

import random
from dataclasses import replace

import pytest

from repro.asn1.tags import UniversalTag
from repro.fuzz.mutators import (
    DN_STRING_TAGS,
    MUTATORS,
    MUTATORS_BY_NAME,
    MutantSpec,
    Mutation,
    apply_mutation,
    apply_mutations,
    byte_delete,
    byte_flip,
    byte_insert,
    encode_text,
    sample_mutations,
    truncate,
)

DN_SEED = MutantSpec(
    context="dn",
    field="subject:CN",
    tag=int(UniversalTag.UTF8_STRING),
    value=b"Te-st",
)
GN_SEED = MutantSpec(
    context="gn",
    field="san:dns",
    tag=int(UniversalTag.IA5_STRING),
    value=b"test.com",
)


class TestBytePrimitives:
    def test_byte_flip_wraps_index(self):
        assert byte_flip(b"abc", 0, 0x58) == b"Xbc"
        assert byte_flip(b"abc", 4, 0x58) == b"aXc"
        assert byte_flip(b"", 0, 0x58) == b""

    def test_byte_insert_allows_append(self):
        assert byte_insert(b"ab", 2, 0x58) == b"abX"
        assert byte_insert(b"", 0, 0x58) == b"X"

    def test_byte_delete_wraps_index(self):
        assert byte_delete(b"abc", 1) == b"ac"
        assert byte_delete(b"abc", 4) == b"ac"
        assert byte_delete(b"", 3) == b""

    def test_truncate_keeps_prefix(self):
        assert truncate(b"abcdef", 2) == b"ab"
        assert truncate(b"abcdef", 8) == b"ab"  # modulo length
        assert truncate(b"", 3) == b""


class TestMutatorInventory:
    def test_fixed_operator_order(self):
        # The campaign RNG indexes into this tuple; reordering it would
        # silently re-key every seeded campaign.
        assert [m.name for m in MUTATORS[:2]] == [
            "swap-string-type",
            "reencode-string-type",
        ]
        assert len(MUTATORS) == len(MUTATORS_BY_NAME) == 16

    def test_every_op_covers_a_paper_dimension(self):
        names = set(MUTATORS_BY_NAME)
        for expected in (
            "insert-bmp",
            "insert-astral",
            "insert-control",
            "insert-bidi",
            "insert-invisible",
            "confusable-label",
            "punycode-edge",
            "byte-flip",
            "byte-insert",
            "byte-delete",
            "truncate",
            "overlong-utf8",
            "lone-surrogate",
            "empty-value",
        ):
            assert expected in names


class TestApplication:
    def test_apply_is_pure(self):
        mutation = Mutation(op="byte-flip", params=(1, 0xFF))
        first = apply_mutation(DN_SEED, mutation)
        second = apply_mutation(DN_SEED, mutation)
        assert first == second
        assert first.value == byte_flip(DN_SEED.value, 1, 0xFF)
        assert first.ops == ("byte-flip",)

    def test_apply_records_op_history(self):
        mutations = [
            Mutation(op="byte-flip", params=(0, 0x41)),
            Mutation(op="empty-value", params=()),
        ]
        out = apply_mutations(DN_SEED, mutations)
        assert out.ops == ("byte-flip", "empty-value")
        assert out.value == b""

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            apply_mutation(DN_SEED, Mutation(op="no-such-op"))

    def test_swap_string_type_changes_declared_tag_only(self):
        target = int(UniversalTag.BMP_STRING)
        mutated = apply_mutation(
            DN_SEED, Mutation(op="swap-string-type", params=(target,))
        )
        assert mutated.tag == target
        assert mutated.value == DN_SEED.value  # octets untouched

    def test_reencode_string_type_reencodes_content(self):
        target = int(UniversalTag.BMP_STRING)
        mutated = apply_mutation(
            DN_SEED, Mutation(op="reencode-string-type", params=(target,))
        )
        assert mutated.tag == target
        assert mutated.value == encode_text(target, "Te-st")


class TestSampling:
    def test_equal_seeds_give_equal_mutations(self):
        a = sample_mutations(random.Random(42), DN_SEED, 5)
        b = sample_mutations(random.Random(42), DN_SEED, 5)
        assert a == b

    def test_different_seeds_diverge(self):
        a = sample_mutations(random.Random(1), DN_SEED, 8)
        b = sample_mutations(random.Random(2), DN_SEED, 8)
        assert a != b

    def test_gn_context_never_samples_type_swaps(self):
        # IMPLICIT tagging erases the declared type on the wire, so the
        # swap operators must decline and re-roll in the GN context.
        rng = random.Random(7)
        for _ in range(50):
            for mutation in sample_mutations(rng, GN_SEED, 3):
                assert mutation.op not in (
                    "swap-string-type",
                    "reencode-string-type",
                )

    def test_sampled_params_are_primitives(self):
        # Replayability: params must be JSON-representable primitives.
        rng = random.Random(13)
        for _ in range(100):
            for mutation in sample_mutations(rng, DN_SEED, 2):
                for param in mutation.params:
                    assert isinstance(param, (int, str, bytes))

    def test_dn_tags_cover_table4_types(self):
        assert len(DN_STRING_TAGS) == 5
        assert int(UniversalTag.TELETEX_STRING) in DN_STRING_TAGS
