"""RFC 6962 Merkle hash tree with inclusion and consistency proofs."""

from __future__ import annotations

import hashlib

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_hash(data: bytes) -> bytes:
    """MTH leaf hash: SHA-256(0x00 || leaf)."""
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """Interior node hash: SHA-256(0x01 || left || right)."""
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def _largest_power_of_two_below(n: int) -> int:
    k = 1
    while k * 2 < n:
        k *= 2
    return k


class MerkleTree:
    """An append-only Merkle tree over arbitrary byte-string leaves.

    Each leaf is hashed once, at :meth:`append`.  A subtree whose width
    is a power of two covers an aligned, complete run of leaves, so its
    hash never changes once it exists: every such hash is memoized the
    first time a root or proof needs it.  A root or proof then hashes
    only the O(log n) nodes on the tree's incomplete right edge.  Those
    are not memoized: they differ for every tree size, while the
    complete subtrees number fewer than the leaves.
    """

    def __init__(self):
        self._leaf_hashes: list[bytes] = []
        #: ``(start, width) -> hash`` of complete power-of-two subtrees.
        self._subtrees: dict[tuple[int, int], bytes] = {}

    def append(self, data: bytes) -> int:
        """Append a leaf; return its index."""
        self._leaf_hashes.append(leaf_hash(data))
        return len(self._leaf_hashes) - 1

    @property
    def size(self) -> int:
        return len(self._leaf_hashes)

    def _hash(self, start: int, end: int) -> bytes:
        """MTH of the leaves ``[start, end)`` (RFC 6962 2.1), ``end > start``."""
        width = end - start
        if width == 1:
            return self._leaf_hashes[start]
        complete = width & (width - 1) == 0
        if complete:
            cached = self._subtrees.get((start, width))
            if cached is not None:
                return cached
        k = _largest_power_of_two_below(width)
        digest = node_hash(self._hash(start, start + k), self._hash(start + k, end))
        if complete:
            self._subtrees[(start, width)] = digest
        return digest

    def root(self, size: int | None = None) -> bytes:
        """Tree head at ``size`` (defaults to the current size)."""
        size = self.size if size is None else size
        if not 0 <= size <= self.size:
            raise ValueError(f"size {size} out of range")
        if size == 0:
            return hashlib.sha256(b"").digest()
        return self._hash(0, size)

    def inclusion_proof(self, index: int, size: int | None = None) -> list[bytes]:
        """PATH(index, D[size]) — RFC 6962 2.1.1, leaf-side node first."""
        size = self.size if size is None else size
        if not 0 <= index < size <= self.size:
            raise ValueError("index/size out of range")
        path = []
        start, end = 0, size
        while end - start > 1:
            split = start + _largest_power_of_two_below(end - start)
            if index < split:
                path.append(self._hash(split, end))
                end = split
            else:
                path.append(self._hash(start, split))
                start = split
        path.reverse()
        return path

    def consistency_proof(self, old_size: int, new_size: int | None = None) -> list[bytes]:
        """PROOF(old_size, D[new_size]) — RFC 6962 2.1.2."""
        new_size = self.size if new_size is None else new_size
        if not 0 < old_size <= new_size <= self.size:
            raise ValueError("sizes out of range")
        proof = []
        start, end, m = 0, new_size, old_size
        complete = True
        while m != end - start:
            k = _largest_power_of_two_below(end - start)
            if m <= k:
                proof.append(self._hash(start + k, end))
                end = start + k
            else:
                proof.append(self._hash(start, start + k))
                start += k
                m -= k
                complete = False
        if not complete:
            proof.append(self._hash(start, end))
        proof.reverse()
        return proof


def verify_inclusion(
    leaf: bytes,
    index: int,
    size: int,
    proof: list[bytes],
    root: bytes,
) -> bool:
    """Verify PATH(index, D[size]) against a signed tree head."""
    if not 0 <= index < size:
        return False
    computed = leaf_hash(leaf)
    fn, sn = index, size - 1
    for node in proof:
        if sn == 0:
            return False
        if fn % 2 == 1 or fn == sn:
            computed = node_hash(node, computed)
            while fn % 2 == 0 and fn != 0:
                fn >>= 1
                sn >>= 1
        else:
            computed = node_hash(computed, node)
        fn >>= 1
        sn >>= 1
    return sn == 0 and computed == root


def verify_consistency(
    old_size: int,
    new_size: int,
    old_root: bytes,
    new_root: bytes,
    proof: list[bytes],
) -> bool:
    """Verify PROOF(old_size, D[new_size]) — RFC 6962 2.1.4.2."""
    if old_size == new_size:
        return old_root == new_root and not proof
    if not 0 < old_size < new_size or not proof:
        return False
    nodes = list(proof)
    if old_size & (old_size - 1) == 0:  # power of two: implicit first node
        nodes.insert(0, old_root)
    fn, sn = old_size - 1, new_size - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    fr = sr = nodes[0]
    for node in nodes[1:]:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            fr = node_hash(node, fr)
            sr = node_hash(node, sr)
            while fn != 0 and fn & 1 == 0:
                fn >>= 1
                sn >>= 1
        else:
            sr = node_hash(sr, node)
        fn >>= 1
        sn >>= 1
    return sn == 0 and fr == old_root and sr == new_root
