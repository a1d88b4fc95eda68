"""The recursive RFC 6962 definitions, kept as a test-only oracle.

:class:`repro.ct.merkle.MerkleTree` hashes each leaf once and memoizes
every complete power-of-two subtree; these functions recompute MTH,
PATH and PROOF from the leaf data straight from RFC 6962 §2.1, and the
differential tests require both to give identical roots and proofs.

``leaves`` is a tuple, so :func:`mth` can be cached: the exhaustive
tests ask for the same subtrees many times, and caching a pure function
cannot change what it returns.  Clear the cache between trees.
"""

import functools
import hashlib

from repro.ct.merkle import _largest_power_of_two_below, leaf_hash, node_hash


@functools.cache
def mth(leaves: tuple[bytes, ...]) -> bytes:
    """Merkle Tree Hash over leaf *data* (RFC 6962 2.1)."""
    if not leaves:
        return hashlib.sha256(b"").digest()
    if len(leaves) == 1:
        return leaf_hash(leaves[0])
    k = _largest_power_of_two_below(len(leaves))
    return node_hash(mth(leaves[:k]), mth(leaves[k:]))


def audit_path(index: int, leaves: tuple[bytes, ...]) -> list[bytes]:
    """PATH(m, D[n]) — RFC 6962 2.1.1."""
    if len(leaves) <= 1:
        return []
    k = _largest_power_of_two_below(len(leaves))
    if index < k:
        return audit_path(index, leaves[:k]) + [mth(leaves[k:])]
    return audit_path(index - k, leaves[k:]) + [mth(leaves[:k])]


def consistency_proof(m: int, leaves: tuple[bytes, ...], complete: bool = True) -> list[bytes]:
    """PROOF(m, D[n]) — RFC 6962 2.1.2."""
    n = len(leaves)
    if m == n:
        return [] if complete else [mth(leaves)]
    k = _largest_power_of_two_below(n)
    if m <= k:
        return consistency_proof(m, leaves[:k], complete=complete) + [mth(leaves[k:])]
    return consistency_proof(m - k, leaves[k:], complete=False) + [mth(leaves[:k])]
