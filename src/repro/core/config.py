"""Configuration of a FireLedger / FLO deployment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.crypto.cost_model import M5_XLARGE, MachineSpec


def max_faults(n_nodes: int) -> int:
    """The largest ``f`` with ``f < n/3`` (the paper's resiliency bound)."""
    if n_nodes < 4:
        raise ValueError("Byzantine fault tolerance requires at least 4 nodes")
    return (n_nodes - 1) // 3


@dataclass(frozen=True)
class FireLedgerConfig:
    """The knobs a caller sets for one cluster (Table 2, the ablations'
    switches, workload and memory); protocol constants such as the WRB timer
    live in the module that reads them."""

    #: Cluster size ``n`` (Table 2: 4, 7 or 10; 100 in the scalability test).
    n_nodes: int = 4
    #: Resiliency ``f``; defaults to the maximum allowed by ``n``.
    f: int = -1
    #: Number of FireLedger workers per FLO node (Table 2: 1..10).
    workers: int = 1
    #: Transactions per block (Table 2: 10, 100 or 1000).
    batch_size: int = 100
    #: Transaction size in bytes (Table 2: 512, 1024 or 4096).
    tx_size: int = 512
    #: VM class the nodes run on.
    machine: MachineSpec = field(default=M5_XLARGE)

    # --- optimisations (Section 6.1.1) -------------------------------------
    #: Separate the data path (block bodies) from the consensus path (headers).
    separate_headers: bool = True
    #: Enable the benign failure detector.
    failure_detector: bool = True
    #: Re-draw the proposer permutation every this many rounds (0 = plain
    #: round-robin, the default).
    permute_every: int = 0

    # --- workload -----------------------------------------------------------
    #: Saturated-load mode: top up every block with synthetic transactions.
    fill_blocks: bool = True

    # --- multiplexed consensus lanes ----------------------------------------
    #: Independent instances of the chosen protocol multiplexed over the one
    #: shared network, each ordering a deterministic (sender-hashed) slice of
    #: the workload; their delivery streams merge round-robin into one total
    #: order.  1 = run the protocol unwrapped (the classic single pipeline).
    lanes: int = 1

    # --- execution layer (account state machine at delivery) ----------------
    #: Apply delivered transactions to a per-node account state machine and
    #: maintain the rolling ``state_root`` oracle.  Off by default: opaque
    #: payloads remain the fast path of the throughput benchmarks.
    execute_transactions: bool = False
    #: Size of the account space of the execution state machine.
    execution_accounts: int = 64
    #: Genesis balance of every account.
    execution_initial_balance: int = 100_000

    # --- memory / retention (long-horizon "soak" runs) ----------------------
    #: Rounds of definite chain each worker retains; older blocks fold into a
    #: running ChainSummary and are dropped, and the node's metrics recorder
    #: streams (an undelivered record folds into bounded aggregates once it
    #: is this many rounds stale).  None = keep everything, exact metrics
    #: (the paper's behaviour; the effective floor is finality_depth + slack).
    retention_rounds: Optional[int] = None
    #: Per-worker (FireLedger) / cluster-wide (baselines) transaction-pool
    #: backlog cap; submissions beyond it are rejected and counted.  None =
    #: unbounded.
    pool_max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 4:
            raise ValueError("FireLedger requires n >= 4 (f >= 1)")
        if self.f < 0:
            object.__setattr__(self, "f", max_faults(self.n_nodes))
        if not 1 <= self.f or not 3 * self.f < self.n_nodes:
            raise ValueError(
                f"resiliency must satisfy 1 <= f < n/3 (n={self.n_nodes}, f={self.f})")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.tx_size < 1:
            raise ValueError("tx_size must be >= 1")
        if self.retention_rounds is not None and self.retention_rounds < 1:
            raise ValueError("retention_rounds must be >= 1 (or None)")
        if self.pool_max_pending is not None and self.pool_max_pending < 1:
            raise ValueError("pool_max_pending must be >= 1 (or None)")
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")
        if self.pool_max_pending is not None and self.pool_max_pending < self.lanes:
            raise ValueError(
                "pool_max_pending is a cluster-global budget split across "
                f"lanes; {self.pool_max_pending} cannot cover {self.lanes} lanes")
        if self.execution_accounts < 1:
            raise ValueError("execution_accounts must be >= 1")
        if self.execution_initial_balance < 0:
            raise ValueError("execution_initial_balance must be >= 0")

    @property
    def finality_depth(self) -> int:
        """Blocks stay tentative for ``f + 1`` rounds (BBFC(f + 1))."""
        return self.f + 1

    @property
    def effective_retention_rounds(self) -> Optional[int]:
        """The retention actually applied — to the chain and, as the
        streaming horizon, to the metrics recorder (None = keep everything).

        Floored at ``2 * (finality_depth + 1)``: the proposer-permutation
        refresh seeds from the definite block ``2 * (f + 2)`` rounds back,
        which must still be live for a pruned chain to draw the same
        schedules as an unpruned one.  (The chain applies its own
        ``finality_depth + PRUNE_SLACK`` floor on top; this one is larger.)
        It also clears the ``finality_depth + 1`` the recorder needs: a
        record within ``finality_depth`` of its worker's newest round can
        still be rescinded by a recovery, and folding is irreversible.
        """
        if self.retention_rounds is None:
            return None
        return max(self.retention_rounds, 2 * (self.finality_depth + 1))

    def with_overrides(self, **overrides) -> "FireLedgerConfig":
        """Copy of the config with selected fields replaced."""
        return replace(self, **overrides)
