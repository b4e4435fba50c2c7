"""The timeout-loop re-checks ``Environment.poll`` replaced, kept as test
oracles.

Until the kernel had ``poll``, both waiters that look at a counter on a
fixed grid resumed their process on every tick:

* **The BFT-SMaRt leader.**  :class:`ReferenceBFTSmartReplica` is
  ``BFTSmartReplica.run_leader`` with its in-flight window (of one), waking
  every 0.5 ms to see whether its instance had committed — about 43 empty
  wake-ups per instance on ``bftsmart-lan``.
* **The closed-loop client.**  :class:`ReferenceClosedLoopClient` is
  ``ClosedLoopClient.run`` waking every ``POLL_INTERVAL`` to look at its
  node's delivery counter.

A poll tick takes the queue slot and sequence number of the timeout it
stands for, and the tick that finds the condition true resumes the waiter
right there, so the replacement claims to be unobservable: same rows, same
``state_root``, same ``Environment._sequence``.  :func:`use_reference` swaps
both back in for the rest of a test.
"""

from __future__ import annotations

from functools import partial

from repro.baselines.bftsmart import BFTSmartReplica
from repro.baselines.replica import replica_nodes
from repro.protocols.base import PROTOCOLS
from repro.workload.clients import ClosedLoopClient, _next_write

#: Consensus instances the leader kept in flight.
PIPELINE_WINDOW = 1


class ReferenceBFTSmartReplica(BFTSmartReplica):
    """The replica whose leader woke on every 0.5 ms tick."""

    def run_leader(self):
        seq = 0
        inflight: dict[int, float] = {}
        while True:
            while len(inflight) < PIPELINE_WINDOW:
                yield from self._propose(seq)
                inflight[seq] = self.env.now
                seq += 1
            oldest = min(inflight)
            if oldest < self.delivery_stream.deliveries:
                del inflight[oldest]
                continue
            yield self.env.timeout(0.0005)


class ReferenceClosedLoopClient(ClosedLoopClient):
    """The client that woke on every ``POLL_INTERVAL`` tick."""

    def run(self):
        while True:
            node, transaction = _next_write(self)
            before = node.delivered_transactions
            if not node.submit_transaction(transaction):
                yield self.env.timeout(self.POLL_INTERVAL)
                continue
            self.submitted_count += 1
            while node.delivered_transactions <= before:
                yield self.env.timeout(self.POLL_INTERVAL)
            self.completed += 1
            if self.think_time:
                yield self.env.timeout(self.rng.expovariate(1.0 / self.think_time))


def use_reference(monkeypatch) -> None:
    """Re-check by waking the process for the rest of a test: the
    ``bftsmart`` table entry builds the old leader, and scenario workloads
    build the old closed-loop client."""
    monkeypatch.setitem(PROTOCOLS, "bftsmart",
                        partial(replica_nodes, ReferenceBFTSmartReplica))
    monkeypatch.setattr("repro.scenarios.spec.ClosedLoopClient",
                        ReferenceClosedLoopClient)
