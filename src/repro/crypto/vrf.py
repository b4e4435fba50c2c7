"""Verifiable-random-function style proposer permutation.

Section 6.1.1 ("Consecutive Byzantine Proposers") suggests periodically
re-drawing the round-robin proposer order from a pseudo-random permutation
whose seed is a block hash, so that an adversary cannot arrange for several
Byzantine nodes to propose consecutively.  We reproduce that with a
deterministic Fisher-Yates shuffle keyed by the seed digest: every correct
node that knows the seed block computes the same permutation, and the
adversary cannot predict it before the seed block exists.
"""

from __future__ import annotations

import hashlib


def _digest_stream(seed: str):
    """Infinite stream of pseudo-random 64-bit integers derived from ``seed``."""
    counter = 0
    while True:
        material = hashlib.sha256(f"{seed}:{counter}".encode("utf-8")).digest()
        for offset in range(0, len(material) - 7, 8):
            yield int.from_bytes(material[offset:offset + 8], "big")
        counter += 1


def proposer_permutation(n_nodes: int, seed: str) -> list[int]:
    """Deterministic pseudo-random permutation of ``range(n_nodes)``.

    ``seed`` is typically the hash of a recently decided block.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    order = list(range(n_nodes))
    stream = _digest_stream(seed)
    for i in range(n_nodes - 1, 0, -1):
        j = next(stream) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order
