"""Client transactions and transaction batches (block bodies)."""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from hashlib import sha256 as _sha256
from operator import attrgetter
from typing import Optional

from repro.crypto.hashing import hash_fields, merkle_root

_tx_counter = itertools.count()


def reduce_to_fields(self):
    """``__reduce__`` of a frozen dataclass that memoises digests in its
    ``__dict__``: pickle the fields only, so a frame never carries the cache
    and a realtime receiver derives every digest from what it unpickled,
    never reads the sender's answer."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


class _WeakReferable:
    """A slotted base whose one slot is ``__weakref__``: what
    ``dataclass(weakref_slot=True)`` (Python 3.11+) would add, on 3.10 too,
    and outside the ten field slots."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True, init=False)
class Transaction(_WeakReferable):
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

    A transaction costs only its fields: no per-instance ``__dict__``.  One
    is built per client write, so the constructor validates, derives the
    digest and writes the ten slots through their member descriptors
    (:data:`_SLOT_SETTERS`) in one frame; assignment after construction
    still raises ``FrozenInstanceError``.  :meth:`__reduce__` rebuilds it
    through the same slot setters (:func:`_restore_transaction`), never
    through the generic slotted-dataclass ``__setstate__`` and its
    ``fields()`` walk.  It can be weakly referenced: the realtime network
    keeps a weak digest -> transaction table so that a node receiving a
    transaction another in-process node framed gets that object back, all
    ten fields matched, rather than a private copy
    (:mod:`repro.runtime.network`).  Plain :mod:`pickle` still rebuilds a
    fresh copy.
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

    def __init__(self, tx_id: int, client_id: int, size_bytes: int,
                 submitted_at: float = 0.0, payload_digest: str = "",
                 payload_seed: Optional[int] = None,
                 sender: Optional[int] = None,
                 recipient: Optional[int] = None,
                 amount: int = 0, nonce: int = 0) -> None:
        if size_bytes <= 0:
            raise ValueError("transactions must have positive size")
        if sender is not None:
            if recipient is None:
                raise ValueError("a transfer needs a recipient")
            if amount < 0 or nonce < 0:
                raise ValueError("transfer amount and nonce must be >= 0")
        if not payload_digest:
            # The string ``hash_fields("tx", identity, client, size[, sender,
            # recipient, amount, nonce])`` would build, written out for its
            # scalar fields: one digest per submitted transaction.  A given
            # digest is kept, as ``dataclasses.replace`` hands it back.
            identity = tx_id if payload_seed is None else payload_seed
            if sender is None:
                text = f"'tx'|{identity!r}|{client_id!r}|{size_bytes!r}|"
            else:
                text = (f"'tx'|{identity!r}|{client_id!r}|{size_bytes!r}|"
                        f"{sender!r}|{recipient!r}|{amount!r}|{nonce!r}|")
            payload_digest = _sha256(text.encode("utf-8")).hexdigest()
        (set_tx_id, set_client_id, set_size, set_submitted_at, set_digest,
         set_seed, set_sender, set_recipient, set_amount,
         set_nonce) = _SLOT_SETTERS
        set_tx_id(self, tx_id)
        set_client_id(self, client_id)
        set_size(self, size_bytes)
        set_submitted_at(self, submitted_at)
        set_digest(self, payload_digest)
        set_seed(self, payload_seed)
        set_sender(self, sender)
        set_recipient(self, recipient)
        set_amount(self, amount)
        set_nonce(self, nonce)

    @classmethod
    def create(cls, client_id: int, size_bytes: int, now: float = 0.0,
               payload_seed: Optional[int] = None,
               sender: Optional[int] = None, recipient: Optional[int] = None,
               amount: int = 0, nonce: int = 0) -> "Transaction":
        """Create a transaction with a fresh globally unique id."""
        return cls(next(_tx_counter), client_id, size_bytes, now, "",
                   payload_seed, sender, recipient, amount, nonce)

    @property
    def digest(self) -> str:
        """Digest identifying this transaction (Merkle leaf)."""
        return self.payload_digest

    def __reduce__(self):
        return _restore_transaction, _field_values(self)


#: The fields of a transaction as a tuple, in declaration (slot) order.
_field_values = attrgetter(*Transaction.__slots__)
#: The ``__set__`` of each slot's member descriptor, in field order.
_SLOT_SETTERS = tuple(vars(Transaction)[name].__set__
                      for name in Transaction.__slots__)


def _restore_transaction(tx_id, client_id, size_bytes, submitted_at,
                         payload_digest, payload_seed, sender, recipient,
                         amount, nonce) -> Transaction:
    """Rebuild a pickled transaction from its field values.  The digest is
    interned, so the copies one process unpickles share one string."""
    (set_tx_id, set_client_id, set_size, set_submitted_at, set_digest,
     set_seed, set_sender, set_recipient, set_amount, set_nonce) = _SLOT_SETTERS
    transaction = object.__new__(Transaction)
    set_tx_id(transaction, tx_id)
    set_client_id(transaction, client_id)
    set_size(transaction, size_bytes)
    set_submitted_at(transaction, submitted_at)
    set_digest(transaction, sys.intern(payload_digest))
    set_seed(transaction, payload_seed)
    set_sender(transaction, sender)
    set_recipient(transaction, recipient)
    set_amount(transaction, amount)
    set_nonce(transaction, nonce)
    return transaction


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

    @cached_property
    def size_bytes(self) -> int:
        """Total wire size of the batch (memoised like :attr:`root`)."""
        explicit = sum([tx.size_bytes for tx in self.transactions])
        return explicit + self.filler_count * self.filler_tx_size

    @property
    def is_empty(self) -> bool:
        """Whether the batch carries no transactions at all."""
        return self.tx_count == 0

    @cached_property
    def root(self) -> str:
        """Merkle root committing to the batch content.  Memoised per
        instance: the batch is frozen and every simulated node holds the same
        object, so nodes 2..n read what node 1 derived (each still pays the
        modelled re-hash time).  Not a field, and never pickled — see
        :func:`reduce_to_fields`."""
        leaves = [tx.payload_digest for tx in self.transactions]
        if self.filler_count:
            leaves.append(hash_fields("filler", self.filler_count,
                                      self.filler_tx_size, self.filler_nonce))
        return merkle_root(leaves)

    __reduce__ = reduce_to_fields
