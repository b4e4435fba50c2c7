"""BFT-SMaRt-style baseline: a PBFT-family leader-driven ordering service.

This models the protocol the paper uses both as the previous state of the art
comparator (Figure 17) and as FireLedger's own recovery-layer consensus:

* a stable leader batches requests and broadcasts a ``PROPOSE`` carrying the
  full batch body;
* all replicas exchange ``WRITE`` acknowledgements all-to-all (quadratic
  message complexity — the scalability limit the paper attributes to
  traditional BFT);
* ``2f + 1`` writes trigger an ``ACCEPT`` round, and ``2f + 1`` accepts commit
  the batch;
* the leader proposes one instance at a time, as Mod-SMaRt runs its
  consensus instances sequentially, and looks for its commit every
  ``LEADER_POLL`` seconds before proposing the next.

Replica authentication uses MAC vectors (cheap) plus one leader signature per
batch, which matches BFT-SMaRt's cost profile.

Leader re-election is not modelled — a crashed or silent node 0 halts the
ordering service, which is the documented behaviour of the comparison figures
(the paper's fault figures exercise FireLedger, not the baselines).  The
workload surface, shared pending pool and commit step come from
:mod:`repro.baselines.replica`; the protocol table builds a cluster of
:class:`BFTSmartReplica` under the name ``"bftsmart"``.
"""

from __future__ import annotations

from repro.baselines.replica import PooledReplicaMixin, Proposal
from repro.net.message import Control

PROPOSE = "SMART_PROPOSE"
WRITE = "SMART_WRITE"
ACCEPT = "SMART_ACCEPT"


class SmartPropose(Proposal):
    """``SMART_PROPOSE``: the leader's batch for sequence number ``round``,
    224 bytes of framing."""

    __slots__ = ()
    KINDS = (PROPOSE,)
    FRAMING = 224


class SmartAck(Control):
    """``SMART_WRITE`` / ``SMART_ACCEPT``: a replica's all-to-all,
    MAC-authenticated acknowledgement of sequence number ``round``."""

    __slots__ = ()
    KINDS = (WRITE, ACCEPT)
    SIZE = 148


class BFTSmartReplica(PooledReplicaMixin):
    """One replica of the BFT-SMaRt-style ordering service."""

    CHANNEL = "bftsmart"
    #: Every message belongs to one consensus instance and is filed by it.
    INBOX = (SmartPropose, SmartAck)
    PROPOSAL = SmartPropose
    TAG = "smart"
    COUNTERS = ("instances_timed_out", "signatures")

    #: The stable leader (re-election is not modelled).
    leader = 0
    #: How often the leader looks for its instance's commit (seconds).
    LEADER_POLL = 0.0005

    def processes(self):
        """The replica loop, plus the batching loop on the stable leader."""
        if self.node_id == self.leader:
            return (self.run_replica(), self.run_leader())
        return (self.run_replica(),)

    # ---------------------------------------------------------------- leader
    def run_leader(self):
        """Leader process: propose one instance, wait for its local commit.

        The commit is observed by the replica loop; sequence numbers commit
        contiguously from 0, so ``seq`` has committed exactly when more than
        ``seq`` commits were delivered.  The leader looks every
        ``LEADER_POLL`` seconds (a timer, not a wake-up, until it holds).
        """
        stream = self.delivery_stream
        seq = 0
        while True:
            yield from self._propose(seq)
            if stream.deliveries <= seq:
                yield self.env.poll(self.LEADER_POLL,
                                    lambda: stream.deliveries > seq)
            seq += 1

    # --------------------------------------------------------------- replica
    def run_replica(self):
        """Replica process: sequential agreement on each sequence number."""
        quorum = 2 * self.f + 1
        next_seq = 0
        while True:
            proposal = yield from self.context.wait_message(
                PROPOSE, next_seq, sender=self.leader, timeout=self.TIMEOUT)
            if proposal is None:
                self.recorder.count("instances_timed_out")
                continue
            # Verify the leader's signature over the batch (hashes the body).
            proposal = proposal.payload
            yield from self.context.use_cpu(
                self.cost.block_verify_time(proposal.tx_count, self.tx_size))
            self.context.broadcast(SmartAck.of(WRITE, next_seq),
                                   include_self=True)
            writes = yield from self.context.collect_messages(
                WRITE, next_seq, count=quorum, timeout=self.TIMEOUT)
            if len(writes) < quorum:
                continue
            self.context.broadcast(SmartAck.of(ACCEPT, next_seq),
                                   include_self=True)
            accepts = yield from self.context.collect_messages(
                ACCEPT, next_seq, count=quorum, timeout=self.TIMEOUT)
            if len(accepts) < quorum:
                continue
            self._commit(next_seq, proposal.tx_count, proposal.transactions,
                         self.leader, proposal.proposed_at)
            next_seq += 1
            # The f stragglers of every quorum step arrive after it completed.
            self.context.inbox.discard_below(next_seq)
