"""The per-transaction path as it ran before it was made to do each piece of
work once, kept as a test oracle.

Three statements of the parent commit (c851f49), verbatim around the values
they read and returned:

* :func:`payload_digest` — ``Transaction.__post_init__``'s digest rule, a
  field list handed to the generic :func:`~repro.crypto.hashing.hash_fields`;
  ``ledger/transaction.py`` now writes the same string out for its scalar
  fields and hashes it directly.
* :func:`pick_node` — ``workload/clients.py::_pick_node`` drawing with
  ``choices(weights=...)``, which re-accumulates the weight list on every
  draw; the clients now accumulate once and pass ``cum_weights=``.
* :class:`ReferenceExecutor` — ``LedgerExecutor.apply_delivery`` and
  ``LedgerState.apply_transaction`` with their ``getattr(..., "sender",
  None)`` reads and the ``digest`` property per transaction.

And the open-loop client's other draws as ``random.Random``'s methods made
them, before ``workload/clients.py`` wrote out the same arithmetic:
:func:`payload_seed` (``randrange(2 ** 62)``), :func:`transfer_amount`
(``randint(0, max_amount)``) and :func:`arrival_gap` (``expovariate``).

The rewrite claims to be unobservable: the Hypothesis differentials in
``tests/test_properties.py`` compare digests, draws, ``rng.getstate()``,
the root after every delivery (it folds each transaction's outcome), outcome
counters, balances, conflicts and per-sender histograms with ``==``.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.crypto.hashing import hash_fields
from repro.ledger.state import (
    APPLIED,
    INVALID,
    OPAQUE,
    STALE,
    LedgerExecutor,
    LedgerState,
)
from repro.metrics.summary import LatencyHistogram


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


class ReferenceState(LedgerState):
    """``LedgerState`` with the parent's ``apply_transaction``."""

    def apply_transaction(self, transaction) -> str:
        sender = getattr(transaction, "sender", None)
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
    """``LedgerExecutor`` with the parent's ``apply_delivery`` loop."""

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
        for transaction in transactions:
            outcome = self.state.apply_transaction(transaction)
            outcomes.append((transaction.digest, outcome))
            sender = getattr(transaction, "sender", None)
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
                    histogram = self._sender_latency[sender] = LatencyHistogram()
                histogram.add(now - transaction.submitted_at)
        self.conflicts += conflicts
        if proposer is not None:
            count = len(transactions) if tx_count is None else tx_count
            self._proposer_tx[proposer] = self._proposer_tx.get(proposer, 0) + count
        self.state_root = hash_fields("exec", self.state_root, tag,
                                      tx_count, outcomes)
        self.deliveries += 1
        self._history.append((tag, self.state_root))
