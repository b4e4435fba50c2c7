"""The transaction pool feeding block proposals."""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from repro.ledger.transaction import Batch, Transaction


class TxPool:
    """FIFO pool of pending client transactions for one worker.

    In the paper's saturated-load experiments, "if a node does not have a full
    block to transmit, the node fills the block with random transactions, up
    to its maximal capacity" (Section 7.2); ``fill_random`` reproduces that so
    throughput benchmarks always measure the protocol, not the offered load.

    ``max_pending`` bounds the backlog for long-horizon runs: once the pool
    holds that many transactions, further :meth:`submit` calls are declined
    (returning False) and counted in :attr:`rejected` — backpressure a
    closed-loop client observes, drop-and-count for an open-loop one.
    ``None`` (the default) keeps the pool unbounded, the paper's behaviour.
    """

    #: Client id of the synthetic filler, which a requeue never returns.
    SYNTHETIC_CLIENT_ID = -1

    def __init__(self, default_tx_size: int = 512,
                 rng: Optional[random.Random] = None,
                 max_pending: Optional[int] = None) -> None:
        if default_tx_size <= 0:
            raise ValueError("default_tx_size must be positive")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        self.default_tx_size = default_tx_size
        self.rng = rng or random.Random(0)
        self.max_pending = max_pending
        self._pending: deque[Transaction] = deque()
        self.rejected = 0
        self.requeue_dropped = 0
        self._batch_counter = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> int:
        """Number of transactions waiting to be batched."""
        return len(self._pending)

    @property
    def is_full(self) -> bool:
        """Whether the pool is at its ``max_pending`` capacity."""
        return (self.max_pending is not None
                and len(self._pending) >= self.max_pending)

    def submit(self, transaction: Transaction) -> bool:
        """Add a client transaction; returns False (and counts) when full."""
        if self.is_full:
            self.rejected += 1
            return False
        self._pending.append(transaction)
        return True

    def take_batch(self, batch_size: int, fill_random: bool = True) -> Batch:
        """Pop up to ``batch_size`` transactions, topping up with synthetic filler.

        When ``fill_random`` is False the batch may be smaller than
        ``batch_size`` (or empty), which models a lightly loaded system.
        Filler transactions are represented compactly (a count, size and a
        unique nonce) rather than as individual objects — see
        :class:`~repro.ledger.transaction.Batch`.
        """
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        popleft = self._pending.popleft
        explicit = [popleft()
                    for _ in range(min(batch_size, len(self._pending)))]
        filler = 0
        if fill_random:
            filler = batch_size - len(explicit)
        self._batch_counter += 1
        nonce = self._batch_counter * (2 ** 48) + self.rng.randrange(2 ** 48)
        return Batch(transactions=tuple(explicit), filler_count=filler,
                     filler_tx_size=self.default_tx_size,
                     filler_nonce=nonce)

    def requeue(self, transactions: list[Transaction]) -> None:
        """Return transactions to the pool head (e.g. after a rescinded block).

        Respects ``max_pending``: requeued transactions past the capacity are
        dropped and counted in :attr:`requeue_dropped` (the client will
        observe the loss and retry, as after any rejected write).
        """
        for transaction in reversed(transactions):
            if transaction.client_id == self.SYNTHETIC_CLIENT_ID:
                continue
            if self.is_full:
                self.requeue_dropped += 1
                continue
            self._pending.appendleft(transaction)
