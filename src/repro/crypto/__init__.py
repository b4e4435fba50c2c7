"""Cryptographic substrate (simulated).

The paper's prototype uses ECDSA over secp256k1 and SHA-256.  Running real
asymmetric cryptography inside a discrete-event simulator would conflate wall
clock time with simulated time, so this package provides *simulated*
primitives: signatures and digests are cheap Python objects that are
unforgeable by construction (a signature records the signer and the digest it
covers and can only be produced through a node's :class:`KeyPair`), while the
CPU time they would have consumed is charged to the simulation clock through
:class:`~repro.crypto.cost_model.CryptoCostModel` — the exact
``t_sign = beta * sigma * t_hash + C`` model of Section 7.1 of the paper.
"""

from repro.crypto.cost_model import CryptoCostModel, MachineSpec
from repro.crypto.hashing import hash_bytes, hash_fields
from repro.crypto.keys import KeyPair, KeyStore
from repro.crypto.signatures import Signature
from repro.crypto.vrf import proposer_permutation

__all__ = [
    "CryptoCostModel",
    "MachineSpec",
    "hash_bytes",
    "hash_fields",
    "KeyPair",
    "KeyStore",
    "Signature",
    "proposer_permutation",
]
