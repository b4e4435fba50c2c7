"""Hashing helpers.

Digests are real SHA-256 hex strings (cheap to compute on the host), but the
*simulated* CPU time of hashing large payloads is accounted for separately by
the cost model — the protocol never hashes megabytes of real data, it hashes a
compact canonical representation and charges ``size_bytes * t_hash`` of
virtual CPU time.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

GENESIS_DIGEST = "0" * 64


def hash_bytes(data: bytes) -> str:
    """SHA-256 of ``data`` as a hex string."""
    return hashlib.sha256(data).hexdigest()


def hash_fields(*fields: Any) -> str:
    """Deterministic digest over a heterogeneous tuple of fields.

    Each field is folded into the hash via its ``repr``; containers are
    flattened one level so that lists of transaction ids hash stably.
    """
    parts: list[str] = []
    for field in fields:
        if isinstance(field, (list, tuple)):
            parts.extend(map(repr, field))
        else:
            parts.append(repr(field))
        parts.append("|")
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


def merkle_root(leaves: Iterable[str]) -> str:
    """Binary Merkle root over already-hashed leaves.

    Used for block transaction digests so that a block header commits to the
    exact transaction set without embedding it.
    """
    sha256 = hashlib.sha256
    level = [leaf for leaf in leaves]
    if not level:
        return GENESIS_DIGEST
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            sha256((level[i] + level[i + 1]).encode("ascii")).hexdigest()
            for i in range(0, len(level), 2)
        ]
    return level[0]
