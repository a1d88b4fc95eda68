"""Tests for the RFC 6962 Merkle tree."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.ct.merkle import MerkleTree, verify_consistency, verify_inclusion, leaf_hash, node_hash


def tree_with(count: int) -> MerkleTree:
    tree = MerkleTree()
    for i in range(count):
        tree.append(f"leaf-{i}".encode())
    return tree


class TestRoot:
    def test_empty_root(self):
        assert MerkleTree().root() == hashlib.sha256(b"").digest()

    def test_single_leaf(self):
        tree = tree_with(1)
        assert tree.root() == leaf_hash(b"leaf-0")

    def test_two_leaves(self):
        tree = tree_with(2)
        assert tree.root() == node_hash(leaf_hash(b"leaf-0"), leaf_hash(b"leaf-1"))

    def test_append_changes_root(self):
        tree = tree_with(3)
        before = tree.root()
        tree.append(b"x")
        assert tree.root() != before

    def test_historic_root(self):
        tree = tree_with(5)
        assert tree.root(2) == tree_with(2).root()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tree_with(2).root(5)


class TestInclusion:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 64])
    def test_all_indices_verify(self, size):
        tree = tree_with(size)
        root = tree.root()
        for index in range(size):
            proof = tree.inclusion_proof(index)
            assert verify_inclusion(f"leaf-{index}".encode(), index, size, proof, root)

    def test_wrong_leaf_fails(self):
        tree = tree_with(8)
        proof = tree.inclusion_proof(3)
        assert not verify_inclusion(b"forged", 3, 8, proof, tree.root())

    def test_wrong_index_fails(self):
        tree = tree_with(8)
        proof = tree.inclusion_proof(3)
        assert not verify_inclusion(b"leaf-3", 4, 8, proof, tree.root())

    def test_historic_inclusion(self):
        tree = tree_with(10)
        proof = tree.inclusion_proof(2, size=6)
        assert verify_inclusion(b"leaf-2", 2, 6, proof, tree.root(6))


class TestConsistency:
    @pytest.mark.parametrize("old,new", [(1, 2), (2, 5), (3, 8), (4, 4), (6, 13), (8, 64)])
    def test_consistency_verifies(self, old, new):
        tree = tree_with(new)
        proof = tree.consistency_proof(old)
        assert verify_consistency(old, new, tree.root(old), tree.root(), proof)

    def test_tampered_history_fails(self):
        tree = tree_with(8)
        other = MerkleTree()
        for i in range(4):
            other.append(f"other-{i}".encode())
        proof = tree.consistency_proof(4)
        assert not verify_consistency(4, 8, other.root(), tree.root(), proof)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_consistency_property(a, b):
    old, new = sorted((a, b))
    tree = tree_with(new)
    proof = tree.consistency_proof(old)
    assert verify_consistency(old, new, tree.root(old), tree.root(), proof)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60))
def test_inclusion_property(size):
    tree = tree_with(size)
    root = tree.root()
    for index in (0, size // 2, size - 1):
        proof = tree.inclusion_proof(index)
        assert verify_inclusion(f"leaf-{index}".encode(), index, size, proof, root)
