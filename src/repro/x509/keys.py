"""Simulation-grade RSA signer (textbook RSA over SHA-256).

The paper's pipeline needs *verifiable* signatures — to reconstruct and
check chains via AIA (Section 5.1's impact analysis) — but nothing about
the study depends on cryptographic strength.  We therefore implement
compact textbook RSA with deterministic, seedable key generation, fully
from scratch (Miller-Rabin primality, modular inverse via
``pow(e, -1, phi)``).

Do not use this module for anything but simulation.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property

from ..asn1.der import (
    Element,
    encode_bit_string,
    encode_integer,
    encode_null,
    encode_oid,
    encode_sequence,
    node_bit_string,
    node_child,
    node_integer,
    parse_node,
)
from ..asn1.oid import OID_RSA_ENCRYPTION, OID_SHA256_WITH_RSA

#: The public exponent of every simulation key.
_E = 65537

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class SimPublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a signature over SHA-256(message)."""
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big")
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        return pow(sig_int, self.e, self.n) == digest % self.n

    # -- SubjectPublicKeyInfo codec ------------------------------------

    def to_spki(self) -> Element:
        """Encode as a SubjectPublicKeyInfo SEQUENCE."""
        algorithm = encode_sequence(encode_oid(OID_RSA_ENCRYPTION), encode_null())
        rsa_key = encode_sequence(encode_integer(self.n), encode_integer(self.e))
        return encode_sequence(algorithm, encode_bit_string(rsa_key.encode()))

    @classmethod
    def from_spki_der(cls, der: bytes) -> "SimPublicKey":
        """Decode a DER SubjectPublicKeyInfo."""
        key_bits, _unused = node_bit_string(der, node_child(parse_node(der, strict=False), 1))
        rsa_key = parse_node(key_bits, strict=False)
        return cls(
            n=node_integer(key_bits, node_child(rsa_key, 0), strict=False),
            e=node_integer(key_bits, node_child(rsa_key, 1), strict=False),
        )

    @classmethod
    def from_spki(cls, element: Element) -> "SimPublicKey":
        """Decode an :class:`Element` through :meth:`from_spki_der`."""
        return cls.from_spki_der(element.encode())

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_spki().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SimPrivateKey:
    """RSA private key; carries its public half and the primes of ``n``."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> SimPublicKey:
        return SimPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)`` for :meth:`sign`."""
        return (
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )

    def sign(self, message: bytes) -> bytes:
        """Sign SHA-256(message) with textbook RSA.

        The exponentiation runs mod ``p`` and mod ``q`` and is
        recombined by the CRT (Garner's formula): the same signature as
        ``pow(digest, d, n)`` at about a third of the cost.
        """
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big")
        dp, dq, q_inv = self._crt
        m_q = pow(digest, dq, self.q)
        signature = m_q + (q_inv * (pow(digest, dp, self.p) - m_q) % self.p) * self.q
        length = (self.n.bit_length() + 7) // 8
        return signature.to_bytes(length, "big")


def search_primes(seed: int | str | None, bits: int = 512) -> tuple[int, int]:
    """The primes ``(p, q)`` of the keypair for ``seed``, by prime search.

    This is the definition of every simulation key: Miller-Rabin over
    candidates drawn from ``random.Random(seed)``, skipping a pair whose
    ``(p-1)(q-1)`` shares a factor with the public exponent.
    """
    rng = random.Random(seed)
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p != q and math.gcd(_E, (p - 1) * (q - 1)) == 1:
            return p, q


def generate_keypair(seed: int | str | None = None, bits: int = 512) -> SimPrivateKey:
    """Generate a deterministic RSA keypair from ``seed``.

    512-bit moduli keep corpus generation fast; the SHA-256 digest
    (256 bits) always fits below the modulus.  The primes of the
    package's own fixed seeds come from the committed table in
    :mod:`repro.x509.simkeys` (regenerated by
    ``scripts/regen_simkeys.py``), which holds exactly what
    :func:`search_primes` finds for them; every other seed runs the
    search.
    """
    if bits < 320:
        raise ValueError("modulus must exceed the 256-bit digest")
    primes = None
    if bits == 512:
        from .simkeys import PRIMES

        primes = PRIMES.get(seed)
    p, q = primes or search_primes(seed, bits)
    return SimPrivateKey(n=p * q, e=_E, d=pow(_E, -1, (p - 1) * (q - 1)), p=p, q=q)


def signature_algorithm_element() -> Element:
    """The AlgorithmIdentifier for our simulated sha256WithRSA."""
    return encode_sequence(encode_oid(OID_SHA256_WITH_RSA), encode_null())
