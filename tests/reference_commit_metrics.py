"""The baselines' own commit log and metric fold, kept as a test oracle.

Until every protocol reported through its node's
:class:`~repro.metrics.recorder.MetricsRecorder`, a HotStuff / BFT-SMaRt
replica kept one :class:`CommitRecord` per commit on ``self.committed`` (for
the whole run, whatever ``[retention]`` said), counted signatures and leader
timeouts on plain attributes, and the baselines' protocol class folded them
with its own window filter.  :class:`CommitRecord` and
:func:`node_metrics` are the parent commit's statements, verbatim (the method
became a function: ``self.timeout_counter`` is the ``timeout_counter``
argument); :class:`ReferenceReplica` is the state a replica's constructor and
``_commit`` kept for them.  The recorder path claims to be unobservable for
the baselines: every ``NodeMetrics`` field equal with ``==``, dict keys in
the same order (Hypothesis differential in ``tests/test_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.recorder import NodeMetrics


@dataclass
class CommitRecord:
    """One committed batch: its slot in the total order and its timing."""

    sequence: int
    tx_count: int
    proposed_at: float
    committed_at: float


class ReferenceReplica:
    """What a replica held for the fold: the log, two counters, the window."""

    def __init__(self, pool, timeout_counter: str) -> None:
        self.pool = pool
        self.committed: list[CommitRecord] = []
        self.signatures = 0
        self.measure_start = 0.0
        setattr(self, timeout_counter, 0)

    def commit(self, sequence: int, tx_count: int, proposed_at: float,
               now: float) -> None:
        self.committed.append(
            CommitRecord(sequence, tx_count, proposed_at, committed_at=now))


def node_metrics(node, duration: float, timeout_counter: str) -> NodeMetrics:
    """Rates, latency samples and counters from the commit records that
    fall inside the node's measurement window."""
    window = max(duration - node.measure_start, 1e-9)
    committed = [record for record in node.committed
                 if record.committed_at >= node.measure_start]
    transactions = sum(record.tx_count for record in committed)
    means = {"blocks_committed": len(committed),
             "transactions_committed": transactions}
    if node.pool is not None and node.pool.max_pending is not None:
        # The pool is cluster-wide shared state: every replica reports the
        # same figure, so it averages (not sums) across correct nodes.
        means["tx_rejected"] = node.pool.rejected
    return NodeMetrics(
        tps=transactions / window,
        bps=len(committed) / window,
        latency_samples=[record.committed_at - record.proposed_at
                         for record in committed],
        totals={timeout_counter: getattr(node, timeout_counter),
                "signatures": node.signatures},
        means=means)
