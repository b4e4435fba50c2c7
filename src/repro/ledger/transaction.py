"""Client transactions and transaction batches (block bodies)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import hash_fields, merkle_root

_tx_counter = itertools.count()


@dataclass(frozen=True)
class Transaction:
    """A client request of ``size_bytes`` bytes, opaque or a structured transfer.

    The paper's evaluation uses randomly generated transactions whose content
    is irrelevant to ordering, so by default the simulation carries only the
    metadata the protocol needs: a unique id, the submitting client, the
    payload size and the submission time (for end-to-end latency accounting).
    ``payload_digest`` stands in for the transaction body; two transactions
    with the same digest are the same transaction.

    Workloads that drive the execution layer (:mod:`repro.ledger.state`)
    additionally set the transfer fields — ``sender`` / ``recipient``
    account ids, an ``amount`` and the sender's ``nonce`` — which the account
    machine validates and applies at delivery.  ``sender is None`` marks an
    opaque (non-transfer) payload.

    ``payload_seed`` makes the digest a function of the submitting workload's
    seeded RNG instead of the process-global id counter, so per-client
    transaction streams are reproducible across runs within one process.
    """

    tx_id: int
    client_id: int
    size_bytes: int
    submitted_at: float = 0.0
    payload_digest: str = field(default="")
    #: Seed drawn from the submitting client's RNG (None = legacy id-derived
    #: digest, kept for direct Transaction() constructions in tests).
    payload_seed: Optional[int] = None
    # --- transfer fields (execution layer; None sender = opaque payload) ---
    sender: Optional[int] = None
    recipient: Optional[int] = None
    amount: int = 0
    nonce: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("transactions must have positive size")
        if self.sender is not None:
            if self.recipient is None:
                raise ValueError("a transfer needs a recipient")
            if self.amount < 0 or self.nonce < 0:
                raise ValueError("transfer amount and nonce must be >= 0")
        if not self.payload_digest:
            identity = (self.payload_seed if self.payload_seed is not None
                        else self.tx_id)
            fields_ = ["tx", identity, self.client_id, self.size_bytes]
            if self.sender is not None:
                fields_ += [self.sender, self.recipient, self.amount, self.nonce]
            object.__setattr__(self, "payload_digest", hash_fields(*fields_))

    @classmethod
    def create(cls, client_id: int, size_bytes: int, now: float = 0.0,
               payload_seed: Optional[int] = None,
               sender: Optional[int] = None, recipient: Optional[int] = None,
               amount: int = 0, nonce: int = 0) -> "Transaction":
        """Create a transaction with a fresh globally unique id."""
        return cls(tx_id=next(_tx_counter), client_id=client_id,
                   size_bytes=size_bytes, submitted_at=now,
                   payload_seed=payload_seed, sender=sender,
                   recipient=recipient, amount=amount, nonce=nonce)

    @property
    def digest(self) -> str:
        """Digest identifying this transaction (Merkle leaf)."""
        return self.payload_digest


@dataclass(frozen=True)
class Batch:
    """A block body: explicit client transactions plus synthetic filler.

    The paper's saturated-load experiments top every block up with randomly
    generated transactions (Section 7.2).  Materialising a million identical
    filler objects per second would dominate the simulation itself, so a batch
    carries the real client transactions explicitly and describes the filler
    compactly by ``(filler_count, filler_tx_size, filler_nonce)`` — the nonce
    makes every filler set unique so two batches never collide on their root.
    """

    transactions: tuple[Transaction, ...] = ()
    filler_count: int = 0
    filler_tx_size: int = 0
    filler_nonce: int = 0

    @property
    def tx_count(self) -> int:
        """Total number of transactions the batch represents."""
        return len(self.transactions) + self.filler_count

    @property
    def size_bytes(self) -> int:
        """Total wire size of the batch."""
        explicit = sum(tx.size_bytes for tx in self.transactions)
        return explicit + self.filler_count * self.filler_tx_size

    @property
    def is_empty(self) -> bool:
        """Whether the batch carries no transactions at all."""
        return self.tx_count == 0

    @property
    def root(self) -> str:
        """Merkle root committing to the batch content."""
        leaves = [tx.digest for tx in self.transactions]
        if self.filler_count:
            leaves.append(hash_fields("filler", self.filler_count,
                                      self.filler_tx_size, self.filler_nonce))
        return merkle_root(leaves)
