"""Simulated unforgeable signatures."""

from __future__ import annotations

from dataclasses import dataclass


# Wire size of an ECDSA secp256k1 signature (r, s) in compact encoding.
SIGNATURE_SIZE_BYTES = 64


@dataclass(frozen=True)
class Signature:
    """A signature by ``signer`` over ``digest``.

    The ``genuine`` flag models forgery attempts: only a node's
    :class:`~repro.crypto.keys.KeyPair` can produce a genuine signature for
    its own identifier, and a Byzantine node fabricating a signature on behalf
    of another node can only produce ``genuine=False`` objects, which every
    verifier rejects.  This captures the "nodes cannot impersonate each other"
    assumption of the system model without real public-key cryptography.
    """

    signer: int
    digest: str
    genuine: bool = True

    @property
    def size_bytes(self) -> int:
        """Wire size of the signature."""
        return SIGNATURE_SIZE_BYTES

    def verify(self, expected_signer: int, digest: str) -> bool:
        """Check the signature is genuine, by the right signer, over ``digest``."""
        return self.genuine and self.signer == expected_signer and self.digest == digest
