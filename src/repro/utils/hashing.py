"""Deterministic hashing utilities and a MinHash implementation.

Python's built-in ``hash`` is randomised per process (PYTHONHASHSEED), which
would make partitioning and LSH non-deterministic across runs.  Everything in
this module is seeded and reproducible.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable

import numpy as np

# A large Mersenne prime used for the universal hash family of MinHash.
_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def stable_hash(value: object, seed: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``value``.

    Unlike ``hash()``, this is stable across interpreter runs, which makes
    MinHash signatures reproducible.
    """
    data = repr(value).encode("utf-8", errors="replace")
    digest = hashlib.blake2b(data, digest_size=8, salt=struct.pack("<q", seed)).digest()
    return int.from_bytes(digest, "little")


def stable_token_hash(token: str, seed: int = 0) -> int:
    """Hash a token string to a 32-bit integer (used by MinHash shingling)."""
    return stable_hash(token, seed) & _MAX_HASH


class MinHasher:
    """MinHash signatures for sets of string tokens.

    The loose-schema generator uses MinHash + banding LSH to find similar
    attributes by the Jaccard similarity of their value-token sets.

    Parameters
    ----------
    num_perm:
        Number of hash permutations (signature length).
    seed:
        Seed of the universal hash family; fixed for reproducibility.
    """

    def __init__(self, num_perm: int = 128, seed: int = 1) -> None:
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        self.num_perm = num_perm
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Universal hashing: h_i(x) = (a_i * x + b_i) mod p mod 2^32
        self._a = rng.integers(1, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)

    def signature(self, tokens: Iterable[str]) -> np.ndarray:
        """Return the MinHash signature (uint32 array) of a token set."""
        token_list = list(tokens)
        if not token_list:
            return np.full(self.num_perm, _MAX_HASH, dtype=np.uint64)
        hashes = np.array(
            [stable_token_hash(t, self.seed) for t in token_list], dtype=np.uint64
        )
        # (num_perm, num_tokens) matrix of permuted hashes; take per-row minima.
        permuted = (
            self._a[:, None] * hashes[None, :] + self._b[:, None]
        ) % _MERSENNE_PRIME
        return (permuted % (_MAX_HASH + 1)).min(axis=1)

    @staticmethod
    def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Estimate Jaccard similarity from two signatures."""
        if sig_a.shape != sig_b.shape:
            raise ValueError("signatures must have the same length")
        if sig_a.size == 0:
            return 0.0
        return float(np.count_nonzero(sig_a == sig_b)) / float(sig_a.size)

    def bands(self, signature: np.ndarray, num_bands: int) -> list[int]:
        """Split ``signature`` into bands and hash each band to a bucket id.

        Two sets landing in the same bucket for at least one band become LSH
        candidates.  ``num_bands`` must divide ``num_perm``.
        """
        if num_bands <= 0:
            raise ValueError("num_bands must be positive")
        if self.num_perm % num_bands != 0:
            raise ValueError("num_bands must divide num_perm")
        rows = self.num_perm // num_bands
        buckets = []
        for band_index in range(num_bands):
            band = signature[band_index * rows : (band_index + 1) * rows]
            buckets.append(stable_hash((band_index, band.tobytes()), self.seed))
        return buckets
