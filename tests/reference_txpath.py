"""The per-transaction path as it ran before each piece of its work was done
once, in one frame, kept as a test oracle.

Statements of earlier commits, verbatim around the values they read and
returned:

* :class:`Transaction` — the slotted frozen dataclass with its generated
  ``__init__`` and the ``__post_init__`` that validated and derived the
  digest (commit b0661fe); ``ledger/transaction.py`` now writes the ten
  slots in one hand-written ``__init__``.
* :func:`payload_digest` — the digest rule as a field list handed to the
  generic :func:`~repro.crypto.hashing.hash_fields` (commit c851f49), which
  both constructors write out for their scalar fields.
* :class:`ReferenceExecutor` / :class:`ReferenceState` — the executor that
  called ``LedgerState.apply_transaction`` once per transaction, kept one
  ``(digest, outcome)`` tuple per transaction and folded the root through
  ``hash_fields`` (commit b0661fe), with :class:`ReferenceHistogram`, the
  ``min`` / ``max`` fold of ``LatencyHistogram.add``.  ``ledger/state.py``
  now applies a block in one loop and renders each outcome once.
* :func:`pick_node` — ``workload/clients.py::_pick_node`` drawing with
  ``choices(weights=...)``, which re-accumulates the weight list on every
  draw (commit c851f49).
* :func:`lane_of` — the lane a ``MultiplexedNode`` routes a write to, as a
  function (commit b0661fe); the node now computes it inline.

And the open-loop client's other draws as ``random.Random``'s methods made
them, before ``workload/clients.py`` wrote out the same arithmetic:
:func:`payload_seed` (``randrange(2 ** 62)``), :func:`transfer_amount`
(``randint(0, max_amount)``) and :func:`arrival_gap` (``expovariate``).

The rewrite claims to be unobservable: the Hypothesis differentials in
``tests/test_properties.py`` compare fields, digests, errors, draws,
``rng.getstate()``, the root after every delivery (it folds each
transaction's outcome), outcome counters, balances, conflicts and
per-sender histograms with ``==``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.crypto.hashing import hash_fields
from repro.ledger.state import LedgerExecutor, LedgerState
from repro.ledger.transaction import (
    _field_values,
    _restore_transaction,
    _tx_counter,
    _WeakReferable,
)
from repro.metrics.summary import LatencyHistogram

#: Per-transaction outcomes of :meth:`ReferenceState.apply_transaction`.
APPLIED = "applied"
STALE = "stale"
INVALID = "invalid"
OPAQUE = "opaque"

#: Knuth's multiplicative hash constant and mask of :func:`lane_of`.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 2 ** 32 - 1


@dataclass(frozen=True, slots=True)
class Transaction(_WeakReferable):
    """``ledger/transaction.py::Transaction`` built by the dataclass's
    generated ``__init__`` and validated / digested in ``__post_init__``."""

    tx_id: int
    client_id: int
    size_bytes: int
    submitted_at: float = 0.0
    payload_digest: str = field(default="")
    payload_seed: Optional[int] = None
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
            # The string ``hash_fields("tx", identity, client, size[, sender,
            # recipient, amount, nonce])`` would build, written out for its
            # scalar fields: one digest per submitted transaction.
            identity = (self.payload_seed if self.payload_seed is not None
                        else self.tx_id)
            text = f"'tx'|{identity!r}|{self.client_id!r}|{self.size_bytes!r}|"
            if self.sender is not None:
                text += (f"{self.sender!r}|{self.recipient!r}|"
                         f"{self.amount!r}|{self.nonce!r}|")
            object.__setattr__(self, "payload_digest", hashlib.sha256(
                text.encode("utf-8")).hexdigest())

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


def payload_digest(tx_id: int, client_id: int, size_bytes: int,
                   payload_seed: Optional[int], sender: Optional[int],
                   recipient: Optional[int], amount: int, nonce: int) -> str:
    """The digest ``Transaction.__post_init__`` derived for these fields."""
    identity = payload_seed if payload_seed is not None else tx_id
    fields_ = ["tx", identity, client_id, size_bytes]
    if sender is not None:
        fields_ += [sender, recipient, amount, nonce]
    return hash_fields(*fields_)


def pick_node(rng: random.Random, nodes: Sequence,
              weights: Optional[Sequence[float]]):
    """Uniform or weighted node choice (shared by both client kinds)."""
    if weights is None:
        return rng.choice(nodes)
    return rng.choices(nodes, weights=weights, k=1)[0]


def payload_seed(rng: random.Random) -> int:
    """``_next_transaction``'s payload identity draw."""
    return rng.randrange(2 ** 62)


def transfer_amount(rng: random.Random, max_amount: int) -> int:
    """``TransferModel.next_transfer``'s amount draw."""
    return rng.randint(0, max_amount)


def arrival_gap(rng: random.Random, rate: float) -> float:
    """``OpenLoopClient._arrive``'s inter-arrival gap draw."""
    return rng.expovariate(rate)


def lane_of(sender: Optional[int], client_id: int, lanes: int) -> int:
    """The lane a transaction belongs to: a pure function of its sender.

    Keyed on ``sender`` so one account's nonce stream is ordered by a single
    lane; opaque (senderless) payloads key on ``client_id`` instead.
    """
    key = client_id if sender is None else sender
    return ((key * _HASH_MULTIPLIER) & _HASH_MASK) % lanes


class ReferenceHistogram(LatencyHistogram):
    """``LatencyHistogram`` folding its extremes with ``min`` / ``max``."""

    def add(self, value: float) -> None:
        index = min(int(value / self.bin_width), self.max_bins - 1)
        if index < 0:
            index = 0
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)


class ReferenceState(LedgerState):
    """``LedgerState`` with its per-transaction ``apply_transaction`` and its
    ``opaque`` counter, which nothing under ``src/`` read."""

    def __init__(self, n_accounts: int, initial_balance: int) -> None:
        super().__init__(n_accounts, initial_balance)
        self.opaque = 0

    def balance_of(self, account: int) -> int:
        return self._balances.get(account, self.initial_balance)

    def apply_transaction(self, transaction) -> str:
        sender = transaction.sender
        if sender is None:
            self.opaque += 1
            return OPAQUE
        expected = self._nonces.get(sender, 0)
        if transaction.nonce < expected:
            self.stale += 1
            return STALE
        self._nonces[sender] = transaction.nonce + 1
        balance = self.balance_of(sender)
        if transaction.amount > balance:
            self.invalid += 1
            return INVALID
        self._balances[sender] = balance - transaction.amount
        recipient = transaction.recipient
        self._balances[recipient] = self.balance_of(recipient) + transaction.amount
        self.applied += 1
        return APPLIED


class ReferenceExecutor(LedgerExecutor):
    """``LedgerExecutor`` with the tuple-per-outcome ``apply_delivery``."""

    def __init__(self, n_accounts: int, initial_balance: int,
                 n_nodes: int = 0) -> None:
        super().__init__(n_accounts, initial_balance, n_nodes=n_nodes)
        self.state = ReferenceState(n_accounts, initial_balance)

    def apply_delivery(self, tag: object, transactions: Sequence,
                       tx_count: Optional[int] = None,
                       proposer: Optional[int] = None,
                       now: float = 0.0) -> None:
        outcomes = []
        touched: set[int] = set()
        conflicts = 0
        apply_transaction = self.state.apply_transaction
        for transaction in transactions:
            outcome = apply_transaction(transaction)
            outcomes.append((transaction.payload_digest, outcome))
            sender = transaction.sender
            if sender is None:
                continue
            for account in (sender, transaction.recipient):
                if account in touched:
                    conflicts += 1
                else:
                    touched.add(account)
            if outcome == APPLIED:
                histogram = self._sender_latency.get(sender)
                if histogram is None:
                    histogram = self._sender_latency[sender] = ReferenceHistogram()
                histogram.add(now - transaction.submitted_at)
        self.conflicts += conflicts
        if proposer is not None:
            count = len(transactions) if tx_count is None else tx_count
            self._proposer_tx[proposer] = self._proposer_tx.get(proposer, 0) + count
        self.state_root = hash_fields("exec", self.state_root, tag,
                                      tx_count, outcomes)
        self.deliveries += 1
        self._history.append((tag, self.state_root))
