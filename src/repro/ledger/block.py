"""Blocks and block headers.

FireLedger separates the consensus path (which carries only block *headers*)
from the data path (which carries the block *bodies*, disseminated eagerly in
the background).  A header commits to the body through the transactions'
Merkle root and to the chain history through ``previous_digest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.crypto.hashing import GENESIS_DIGEST, hash_fields
from repro.crypto.signatures import SIGNATURE_SIZE_BYTES, Signature
from repro.ledger.transaction import Batch, Transaction, reduce_to_fields

#: Serialised size of the fixed header fields (round, proposer, digests, ...).
HEADER_BASE_SIZE_BYTES = 192
#: Wire size of a header together with its proposer's signature.
SIGNED_HEADER_SIZE_BYTES = HEADER_BASE_SIZE_BYTES + SIGNATURE_SIZE_BYTES


@dataclass(frozen=True)
class BlockHeader:
    """The part of a block that travels through the consensus layer."""

    round_number: int
    proposer: int
    previous_digest: str
    tx_root: str
    tx_count: int
    body_size_bytes: int
    worker_id: int = 0
    created_at: float = 0.0

    @cached_property
    def digest(self) -> str:
        """Digest of the header; this is what the proposer signs.  Memoised
        per instance (frozen, and shared by every simulated node); not a field,
        so ``==`` / ``hash`` / ``repr`` / ``dataclasses.replace`` never see it."""
        return hash_fields(
            "header", self.round_number, self.proposer, self.previous_digest,
            self.tx_root, self.tx_count, self.body_size_bytes, self.worker_id,
        )

    __reduce__ = reduce_to_fields

    @property
    def size_bytes(self) -> int:
        """Wire size of the header plus its signature."""
        return SIGNED_HEADER_SIZE_BYTES


@dataclass(frozen=True)
class Block:
    """A full block: header, body (batch) and the proposer's signature."""

    header: BlockHeader
    batch: Batch = Batch()
    signature: Optional[Signature] = None

    @property
    def round_number(self) -> int:
        """Round (height) of the block."""
        return self.header.round_number

    @property
    def proposer(self) -> int:
        """Node id of the block's proposer."""
        return self.header.proposer

    @property
    def digest(self) -> str:
        """The block's identity (its header digest)."""
        return self.header.digest

    @property
    def previous_digest(self) -> str:
        """Digest of the predecessor block."""
        return self.header.previous_digest

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The explicit client transactions carried by the block."""
        return self.batch.transactions

    @property
    def tx_count(self) -> int:
        """Number of transactions in the block (explicit plus filler)."""
        return self.batch.tx_count

    @property
    def body_size_bytes(self) -> int:
        """Wire size of the block body."""
        return self.batch.size_bytes

    @property
    def size_bytes(self) -> int:
        """Total wire size (header + body)."""
        return self.header.size_bytes + self.batch.size_bytes

    @property
    def is_empty(self) -> bool:
        """Whether the block carries no transactions."""
        return self.batch.is_empty


def header_for_batch(round_number: int, proposer: int, previous_digest: str,
                     batch: Batch, worker_id: int = 0,
                     created_at: float = 0.0) -> BlockHeader:
    """Build the header committing to ``batch`` on top of ``previous_digest``."""
    return BlockHeader(
        round_number=round_number,
        proposer=proposer,
        previous_digest=previous_digest,
        tx_root=batch.root,
        tx_count=batch.tx_count,
        body_size_bytes=batch.size_bytes,
        worker_id=worker_id,
        created_at=created_at,
    )


def build_block(round_number: int, proposer: int, previous_digest: str,
                transactions: Sequence[Transaction] = (),
                batch: Optional[Batch] = None, worker_id: int = 0,
                created_at: float = 0.0) -> Block:
    """Assemble an unsigned block from a transaction batch."""
    if batch is None:
        batch = Batch(transactions=tuple(transactions))
    header = header_for_batch(round_number, proposer, previous_digest, batch,
                              worker_id, created_at)
    return Block(header=header, batch=batch)


def make_genesis(worker_id: int = 0) -> Block:
    """The genesis block every node starts from (round -1, no proposer)."""
    batch = Batch()
    header = BlockHeader(
        round_number=-1,
        proposer=-1,
        previous_digest=GENESIS_DIGEST,
        tx_root=batch.root,
        tx_count=0,
        body_size_bytes=0,
        worker_id=worker_id,
    )
    return Block(header=header, batch=batch)
