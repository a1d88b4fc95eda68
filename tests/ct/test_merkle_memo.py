"""The memoized Merkle tree against the recursive RFC 6962 oracle.

:class:`repro.ct.merkle.MerkleTree` hashes leaves once and memoizes
complete subtrees; :mod:`tests.ct.reference_merkle` recomputes MTH,
PATH and PROOF from the leaf data.  Roots and proofs must be identical
for every tree size 1..300 and every valid (index, size) and (m, n).
"""

import hashlib

import pytest

from repro.ct.merkle import MerkleTree, leaf_hash

from . import reference_merkle as reference

MAX_SIZE = 300
LEAVES = [f"leaf-{i}".encode() for i in range(MAX_SIZE)]


def _check_size(tree: MerkleTree, n: int) -> None:
    reference.mth.cache_clear()
    leaves = tuple(LEAVES[:n])
    assert tree.root(n) == reference.mth(leaves)
    for index in range(n):
        assert tree.inclusion_proof(index, n) == reference.audit_path(index, leaves), (
            index,
            n,
        )
    for m in range(1, n + 1):
        assert tree.consistency_proof(m, n) == reference.consistency_proof(m, leaves), (
            m,
            n,
        )


def test_every_size_and_pair_while_growing():
    # Query each size as soon as it exists, so the memo is filled by a
    # growing tree, as it is under a monitor polling a live log.
    tree = MerkleTree()
    for n in range(1, MAX_SIZE + 1):
        tree.append(LEAVES[n - 1])
        _check_size(tree, n)


def test_every_historic_size_of_a_full_tree():
    # A tree built to full size first answers every older size from the
    # same memo.
    tree = MerkleTree()
    for leaf in LEAVES:
        tree.append(leaf)
    for n in range(MAX_SIZE, 0, -1):
        _check_size(tree, n)


def test_empty_root():
    assert MerkleTree().root() == hashlib.sha256(b"").digest()
    assert MerkleTree().root(0) == reference.mth(())


def test_leaf_hashed_at_append():
    # The leaf's bytes are read once, when appended: later changes to
    # a mutable buffer the caller passed in cannot reach the tree.
    buffer = bytearray(b"leaf-0")
    tree = MerkleTree()
    tree.append(buffer)
    buffer[:] = b"forged"
    assert tree.root() == leaf_hash(b"leaf-0")


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t.root(9),
        lambda t: t.inclusion_proof(8),
        lambda t: t.inclusion_proof(0, 9),
        lambda t: t.consistency_proof(0),
        lambda t: t.consistency_proof(3, 9),
        lambda t: t.consistency_proof(5, 4),
    ],
)
def test_out_of_range_rejected(call):
    tree = MerkleTree()
    for leaf in LEAVES[:8]:
        tree.append(leaf)
    with pytest.raises(ValueError):
        call(tree)
