"""Account state machine executed at block delivery.

Transactions carried only opaque byte payloads until now: the repro measured
*ordering* but never *meaning*.  This module gives delivered transactions
semantics — an account machine with balances and per-sender nonces — plus the
cross-node correctness oracle the test suite was missing: a rolling
``state_root`` digest that must agree across every honest node of a cluster,
for every protocol, at every common point of the delivered sequence.

Design constraints, in order:

* **Determinism.**  The root is a pure fold over (delivery tag, per-transaction
  outcomes), so any two nodes that delivered the same block sequence hold the
  same root, regardless of wall-clock, retention settings or protocol.
* **Composes with chain pruning (PR 5).**  Execution happens exactly once, at
  delivery — FireLedger releases a round to clients strictly before the chain
  is allowed to prune it (``released_through`` gating), so a pruned block is
  never re-executed and the root never depends on what is still live.  The
  executor itself keeps only O(accounts + history window) state.
* **Relaxed nonce rule.**  A cluster routes one client's writes to different
  nodes' pools, so commit order across a client's own transactions is not
  sequential.  Requiring ``nonce == expected`` would deadlock honest
  workloads; instead a transfer is *stale* only when ``nonce < expected``
  (a replay / duplicate), and any ``nonce >= expected`` applies and advances
  ``expected`` to ``nonce + 1``.  A duplicate is therefore rejected exactly
  once — the property tests pin this down.

Fairness accounting rides along at the same hook: per-sender commit-latency
histograms (FairLedger's motivation — throughput-optimal protocols can starve
individual senders) and per-proposer delivered-transaction counts (proposer
bias: 1.0 for a perfectly fair rotation, ``n`` for a single static leader).
"""

from __future__ import annotations

from collections import deque
from hashlib import sha256
from typing import Iterable, Optional, Sequence

from repro.crypto.hashing import hash_fields
from repro.metrics.summary import LatencyHistogram

#: Deliveries of (index, tag, root) history an executor retains for the
#: cross-node common-prefix comparison.  Nodes frozen by a crash fall behind
#: the live ones by at most a run's worth of deliveries; 8192 covers every
#: shipped scenario with two orders of magnitude to spare while keeping a
#: soak run's executors well under a megabyte each.
HISTORY_LIMIT = 8192


class StateDivergenceError(RuntimeError):
    """Two honest nodes executed the same delivered prefix to different roots."""


class LedgerState:
    """Balances and per-sender nonces over a fixed account space.

    Accounts are dense integers ``0 .. n_accounts-1``; storage is sparse
    (only touched accounts take memory) with ``initial_balance`` / nonce 0
    as the implicit genesis value.
    """

    def __init__(self, n_accounts: int, initial_balance: int) -> None:
        if n_accounts < 1:
            raise ValueError("n_accounts must be >= 1")
        if initial_balance < 0:
            raise ValueError("initial_balance must be non-negative")
        self.n_accounts = n_accounts
        self.initial_balance = initial_balance
        self._balances: dict[int, int] = {}
        self._nonces: dict[int, int] = {}
        self.applied = 0
        self.stale = 0
        self.invalid = 0

    def apply_block(self, transactions: Sequence, now: float,
                    sender_latency: dict[int, LatencyHistogram]
                    ) -> tuple[str, int]:
        """Apply one delivered block's transactions in order, in one loop.

        Each transaction has one outcome:

        * ``opaque`` — no transfer fields (saturated-mode payloads);
        * ``stale`` — ``nonce < expected``: a replay or duplicate, rejected;
        * ``invalid`` — fresh nonce but insufficient balance; the nonce is
          still consumed (the sender "paid for" the failed attempt), which
          keeps the outcome independent of any later balance changes;
        * ``applied`` — balance moved, nonce advanced to ``nonce + 1``, and
          the commit latency ``now - submitted_at`` folded into the sender's
          histogram in ``sender_latency`` — once per sender per block, in
          the sender's order, so every sum is the one sample-by-sample
          folding makes.

        Returns the outcomes rendered as the root fold hashes them — each
        ``repr((digest, outcome))``, concatenated — and the block's account
        conflicts: every sender or recipient a transfer touches that an
        earlier transfer of the same block touched already.
        """
        balances = self._balances
        nonces = self._nonces
        initial = self.initial_balance
        touched: set[int] = set()
        touch = touched.add
        rendered: list[str] = []
        render = rendered.append
        waits: dict[int, list[float]] = {}
        applied = stale = invalid = 0
        for transaction in transactions:
            digest = transaction.payload_digest
            sender = transaction.sender
            if sender is None:
                render(f"({digest!r}, 'opaque')")
                continue
            recipient = transaction.recipient
            touch(sender)
            touch(recipient)
            nonce = transaction.nonce
            if nonce < nonces.get(sender, 0):
                stale += 1
                render(f"({digest!r}, 'stale')")
                continue
            nonces[sender] = nonce + 1
            amount = transaction.amount
            balance = balances.get(sender, initial)
            if amount > balance:
                invalid += 1
                render(f"({digest!r}, 'invalid')")
                continue
            balances[sender] = balance - amount
            balances[recipient] = balances.get(recipient, initial) + amount
            applied += 1
            render(f"({digest!r}, 'applied')")
            sender_waits = waits.get(sender)
            if sender_waits is None:
                waits[sender] = [now - transaction.submitted_at]
            else:
                sender_waits.append(now - transaction.submitted_at)
        for sender, sender_waits in waits.items():
            histogram = sender_latency.get(sender)
            if histogram is None:
                histogram = sender_latency[sender] = LatencyHistogram()
            histogram.extend(sender_waits)
        self.applied += applied
        self.stale += stale
        self.invalid += invalid
        # Two accounts per transfer; each one already in ``touched`` when
        # added is a conflict.
        conflicts = 2 * (applied + stale + invalid) - len(touched)
        return "".join(rendered), conflicts


class LedgerExecutor:
    """Applies delivered blocks to a :class:`LedgerState` and folds the root.

    One executor per node; the cluster runner compares the executors of all
    correct nodes via :func:`verify_state_agreement` after a run.  The
    delivery *tag* identifies the delivered block protocol-specifically (a
    FireLedger block digest, a HotStuff view, a BFT-SMaRt sequence number) so
    the comparison can align the per-node delivery sequences even when a node
    legitimately skipped a view.
    """

    def __init__(self, n_accounts: int, initial_balance: int,
                 n_nodes: int = 0, history_limit: int = HISTORY_LIMIT) -> None:
        self.state = LedgerState(n_accounts, initial_balance)
        self.n_nodes = n_nodes
        self.genesis_root = hash_fields("exec-genesis", n_accounts,
                                        initial_balance)
        self.state_root = self.genesis_root
        self.deliveries = 0
        self.conflicts = 0
        #: (tag, root-after) per delivery; bounded, oldest entries dropped.
        self._history: deque[tuple[object, str]] = deque(maxlen=history_limit)
        self._sender_latency: dict[int, LatencyHistogram] = {}
        self._proposer_tx: dict[int, int] = {}

    @classmethod
    def from_config(cls, config) -> Optional["LedgerExecutor"]:
        """An executor per the config's execution knobs (None when disabled)."""
        if not config.execute_transactions:
            return None
        return cls(n_accounts=config.execution_accounts,
                   initial_balance=config.execution_initial_balance,
                   n_nodes=config.n_nodes)

    # ------------------------------------------------------------- execution
    def apply_delivery(self, tag: object, transactions: Sequence,
                       tx_count: Optional[int] = None,
                       proposer: Optional[int] = None,
                       now: float = 0.0) -> None:
        """Execute one delivered block and fold it into the rolling root.

        ``tx_count`` is the block's total (explicit + synthetic filler) so
        saturated-mode blocks still contribute their size to the root;
        ``transactions`` are the explicit ones actually executed.
        """
        outcomes, conflicts = self.state.apply_block(
            transactions, now, self._sender_latency)
        self.conflicts += conflicts
        if proposer is not None:
            count = len(transactions) if tx_count is None else tx_count
            self._proposer_tx[proposer] = self._proposer_tx.get(proposer, 0) + count
        # The text ``hash_fields("exec", root, tag, tx_count, outcomes)``
        # hashes for the list of ``(digest, outcome)`` pairs, written out: a
        # tuple tag (a lane's ``(lane, tag)``) is flattened one level.
        tag_text = ("".join(map(repr, tag)) if isinstance(tag, (list, tuple))
                    else repr(tag))
        self.state_root = sha256(
            f"'exec'|{self.state_root!r}|{tag_text}|{tx_count!r}|{outcomes}|"
            .encode("utf-8")).hexdigest()
        self.deliveries += 1
        self._history.append((tag, self.state_root))

    def on_delivery(self, delivery) -> None:
        """Delivery-stream consumer: execute one released block.

        The cluster runner subscribes this to each node's
        :class:`~repro.ledger.delivery.DeliveryStream`, so every protocol's
        commit path feeds the execution layer through the same seam.
        Subscription order preserves the pruning invariant: the executor is
        subscribed before any release bookkeeping that could unlock pruning
        runs, so a block always executes strictly before it may be dropped.
        """
        self.apply_delivery(tag=delivery.tag,
                            transactions=delivery.transactions,
                            tx_count=delivery.tx_count,
                            proposer=delivery.proposer,
                            now=delivery.time)

    # ------------------------------------------------------------ inspection
    @property
    def oldest_recorded(self) -> int:
        """Delivery index (1-based) of the oldest retained history entry."""
        return self.deliveries - len(self._history) + 1

    def history_slice(self, start: int, end: int) -> list[tuple[object, str]]:
        """Retained ``(tag, root)`` entries for delivery indices start..end."""
        offset = start - self.oldest_recorded
        length = end - start + 1
        if offset < 0 or length < 0:
            raise IndexError("requested history outside the retained window")
        entries = list(self._history)
        return entries[offset:offset + length]

    def fairness(self) -> dict[str, float]:
        """Fairness metrics observed at this node (empty when nothing ran).

        * ``proposer_bias`` — the busiest proposer's share of delivered
          transactions times ``n_nodes``: 1.0 for a perfectly fair rotation,
          ``n_nodes`` for a single static leader.
        * ``sender_p50_spread_ms`` / ``sender_p99_spread_ms`` — max minus min
          of the per-sender commit-latency percentiles: 0 when every sender
          is served alike, large when some senders are starved.
        """
        metrics: dict[str, float] = {}
        total = sum(self._proposer_tx.values())
        if total > 0 and self.n_nodes:
            metrics["proposer_bias"] = (max(self._proposer_tx.values())
                                        / total * self.n_nodes)
        histograms = [h for h in self._sender_latency.values() if h.count]
        if histograms:
            p50s = [h.percentile(50) for h in histograms]
            p99s = [h.percentile(99) for h in histograms]
            metrics["sender_p50_spread_ms"] = (max(p50s) - min(p50s)) * 1000.0
            metrics["sender_p99_spread_ms"] = (max(p99s) - min(p99s)) * 1000.0
        return metrics


def verify_state_agreement(executors: Iterable[LedgerExecutor]) -> tuple[int, Optional[str]]:
    """Assert root agreement over the longest common delivered prefix.

    Honest nodes may end a run at different delivery heights (a crashed and
    recovered node's execution froze early; a replica skipped a view it
    never saw a proposal for), so the oracle aligns the per-node ``(tag,
    root)`` histories by delivery index, walks forward while every node
    delivered the *same* block, and demands identical roots along the way.

    Returns ``(deliveries, root)`` at the last agreed point — ``(0, genesis)``
    when the common prefix is empty.  Raises :class:`StateDivergenceError`
    when nodes delivered the same sequence but computed different roots
    (an execution bug, never expected), or ``(0, None)`` when the bounded
    histories no longer overlap and nothing can be checked.
    """
    live = [executor for executor in executors if executor is not None]
    if not live:
        return 0, None
    genesis = {executor.genesis_root for executor in live}
    if len(genesis) != 1:
        raise StateDivergenceError(
            "executors configured with different account spaces: "
            f"{sorted(genesis)}")
    start = max(executor.oldest_recorded for executor in live)
    end = min(executor.deliveries for executor in live)
    if end == 0:
        return 0, genesis.pop()
    if start > end:
        return 0, None  # bounded histories drifted apart; nothing to compare
    slices = [executor.history_slice(start, end) for executor in live]
    agreed: tuple[int, str] = (0, genesis.pop()) if start == 1 else (0, None)
    for step, entries in enumerate(zip(*slices)):
        tags = {tag for tag, _ in entries}
        if len(tags) != 1:
            break  # nodes legitimately delivered different blocks from here
        roots = {root for _, root in entries}
        if len(roots) != 1:
            raise StateDivergenceError(
                f"state roots diverged at delivery {start + step} "
                f"(tag {next(iter(tags))!r}): {sorted(roots)}")
        agreed = (start + step, roots.pop())
    return agreed
