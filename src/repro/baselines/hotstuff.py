"""Chained HotStuff baseline (Yin et al., 2019) on the simulated substrate.

The model reproduces the properties that matter for the Section 7.6
comparison against FireLedger:

* a rotating leader proposes one block per view and ships the **full block
  body** through the consensus path (no header/body separation);
* every replica verifies the proposal and produces **one asymmetric signature
  per block** (its vote) — versus a single proposer signature per block in
  FireLedger, which is the CPU-side advantage the paper highlights;
* votes are sent to the next leader which aggregates them into a quorum
  certificate (linear communication);
* a block becomes final after the three-chain rule, i.e. roughly three view
  durations (the "3 rounds finality" the paper quotes).

A view whose leader never proposes (crashed, partitioned or silent) times out
at every replica; the next leader then proposes immediately with the highest
QC it has, without waiting a further vote round — the model's equivalent of
HotStuff's NEW-VIEW interrupt, which keeps the chain live across skipped
views instead of cascading timeouts forever.

The workload surface, shared pending pool and commit step come from
:mod:`repro.baselines.replica`; the protocol table builds a cluster of
:class:`HotStuffReplica` under the name ``"hotstuff"``.  A silent leader's
views time out and exercise the NEW-VIEW skip path.
"""

from __future__ import annotations

from repro.baselines.replica import PooledReplicaMixin, Proposal
from repro.net.message import Control

PROPOSAL = "HS_PROPOSAL"
VOTE = "HS_VOTE"

#: Number of chained QCs required before a block is final (three-chain rule).
COMMIT_DEPTH = 3


class HotStuffProposal(Proposal):
    """``HS_PROPOSAL``: view ``round``'s block, shipped whole, 256 bytes of
    framing."""

    __slots__ = ()
    KINDS = (PROPOSAL,)
    FRAMING = 256


class HotStuffVote(Control):
    """``HS_VOTE``: a replica's signed vote for view ``round``, sent to the
    next leader."""

    __slots__ = ()
    KINDS = (VOTE,)
    SIZE = 180


class HotStuffReplica(PooledReplicaMixin):
    """One HotStuff replica."""

    CHANNEL = "hotstuff"
    #: Proposals and votes, filed per view.
    INBOX = (HotStuffProposal, HotStuffVote)
    PROPOSAL = HotStuffProposal
    TAG = "hs"
    COUNTERS = ("views_timed_out", "signatures")

    view = 0

    # ----------------------------------------------------------------- roles
    def _leader_of(self, view: int) -> int:
        return view % self.network.n_nodes

    def run(self):
        """Main replica process: one iteration per view."""
        quorum = self.network.n_nodes - self.f
        proposals: dict[int, HotStuffProposal] = {}
        seen_proposal_view = -1
        while True:
            view = self.view
            leader = self._leader_of(view)
            # Votes for view v - 1 are collected by the leader of view v.
            self.context.inbox.discard_below(view - 1)

            if leader == self.node_id:
                # Wait for the QC of the previous view (the votes addressed to
                # us as the incoming leader) — but only if that view actually
                # produced a proposal; after a timed-out view nobody voted, so
                # the leader proposes immediately (the NEW-VIEW path).
                if view > 0 and seen_proposal_view == view - 1:
                    votes = yield from self.context.collect_messages(
                        VOTE, view - 1, count=quorum, timeout=self.TIMEOUT)
                    if len(votes) >= quorum:
                        # Aggregate-signature verification of the QC.
                        yield from self.context.use_cpu(self.cost.verify_time(0))
                yield from self._propose(view)

            proposal = yield from self.context.wait_message(
                PROPOSAL, view, sender=leader, timeout=self.TIMEOUT)
            if proposal is None:
                self.recorder.count("views_timed_out")
                self.view += 1
                continue
            seen_proposal_view = view

            # Verify the proposal (hash the body, check the leader signature
            # and the embedded QC) and vote.
            proposal = proposal.payload
            yield from self.context.use_cpu(
                self.cost.block_verify_time(proposal.tx_count, self.tx_size))
            yield from self.context.use_cpu(self.cost.sign_time(0))
            self.recorder.count("signatures")
            proposals[view] = proposal
            self.context.send(self._leader_of(view + 1), HotStuffVote.of(VOTE, view))

            # Three-chain commit: the proposal for view v carries the QC chain
            # that finalises the block proposed COMMIT_DEPTH views earlier.
            commit_view = view - COMMIT_DEPTH
            if commit_view in proposals:
                committed = proposals.pop(commit_view)
                self._commit(commit_view, committed.tx_count,
                             committed.transactions,
                             self._leader_of(commit_view),
                             committed.proposed_at)
            self.view += 1
