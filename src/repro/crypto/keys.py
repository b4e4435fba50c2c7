"""Key pairs and the cluster-wide key store (the PKI the paper assumes)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.signatures import Signature


@dataclass
class KeyPair:
    """The signing identity of one node.

    Only the holder of a :class:`KeyPair` can create genuine signatures for
    its ``node_id``; anything else claiming to be one is a ``genuine=False``
    :class:`~repro.crypto.signatures.Signature`, which verification always
    rejects.
    """

    node_id: int

    def sign(self, digest: str) -> Signature:
        """Produce a genuine signature over ``digest``."""
        return Signature(signer=self.node_id, digest=digest, genuine=True)


class KeyStore:
    """Cluster-wide registry of key pairs (a stand-in for the PKI)."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self._keys = {node_id: KeyPair(node_id) for node_id in range(n_nodes)}

    def __len__(self) -> int:
        return len(self._keys)

    def key_for(self, node_id: int) -> KeyPair:
        """The key pair of ``node_id``."""
        return self._keys[node_id]

    def verify(self, signature: Signature, expected_signer: int, digest: str) -> bool:
        """Verify ``signature`` against the registered identity."""
        if expected_signer not in self._keys:
            return False
        return signature.verify(expected_signer, digest)
