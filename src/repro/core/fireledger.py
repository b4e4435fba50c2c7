"""The FireLedger protocol node (Algorithms 2 and 3 of the paper).

One :class:`FireLedgerWorker` is a single FireLedger instance running at one
node — FLO (Section 6.2) runs several of them side by side.  The worker owns
its local blockchain, transaction pool, WRB endpoint, the reactive reliable /
atomic broadcast endpoints used by the panic path, and the main round loop:

* pick the round's proposer (skipping anyone who proposed within the last
  ``f`` rounds);
* if it is this node's turn and the previous delivery failed, WRB-broadcast a
  block explicitly; otherwise the next proposer piggybacks its header on its
  OBBC vote for the current round;
* WRB-deliver the proposer's header (the body travels on the data path and is
  required before voting for delivery);
* validate the delivered header against the local chain; an inconsistency is
  reliably broadcast as a *panic proof* and triggers the recovery procedure;
* append the block, promote the block at depth ``f + 2`` to *definite*.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.broadcast.atomic import AB_KINDS, AtomicBroadcast
from repro.broadcast.reliable import RB_KINDS, ReliableBroadcast
from repro.consensus.bbc import Decided, Step
from repro.consensus.obbc import (
    OBBC_EV_REQ,
    Evidence,
    EvidenceRequest,
)
from repro.core import wrb
from repro.core.config import FireLedgerConfig
from repro.core.context import PanicInterrupt, ProtocolContext
from repro.core.failure_detector import BenignFailureDetector
from repro.core.timers import AdaptiveTimer
from repro.core.wrb import (
    WRB_HEADER,
    WRB_PULL_REQ,
    WRB_PULL_RESP,
    Header,
    WeakReliableBroadcast,
)
from repro.crypto.cost_model import CryptoCostModel
from repro.crypto.keys import KeyStore
from repro.crypto.vrf import proposer_permutation
from repro.ledger.block import Block, BlockHeader, header_for_batch
from repro.ledger.chain import Blockchain, ChainVersion
from repro.ledger.transaction import Batch
from repro.ledger.txpool import TxPool
from repro.ledger.validation import (
    ValidationError,
    distinct_proposers_window,
    validate_chain,
)
from repro.metrics.recorder import (
    EVENT_BLOCK_PROPOSAL,
    EVENT_DEFINITE_DECISION,
    EVENT_HEADER_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
    MetricsRecorder,
)
from repro.net.message import HEAD, Message, Record
from repro.net.network import Network, discard
from repro.sim import Environment

BODY = "BODY"
BODY_REQ = "BODY_REQ"
BODY_RESP = "BODY_RESP"

#: The counters a FireLedger node's recorder declares (a zero still shows).
COUNTERS = ("fast_path_rounds", "fallback_rounds", "failed_rounds",
            "recoveries", "signatures")

#: Bodies disseminated ahead of the proposals that consume them.
MAX_OUTSTANDING_BODIES = 2
#: Flow control (Section 7.2): past this many seconds of data-path backlog on
#: the node's NIC, a proposer publishes an empty block instead of pushing yet
#: another full body into an overloaded network.
FLOW_CONTROL_BACKLOG = 0.05


class SignedHeader(Record):
    """The payload a FireLedger proposer WRB-broadcasts: a block ``header``
    and its ``signature`` over the header digest."""

    __slots__ = ()
    FIELDS = ("header", "signature")


class Body(Record):
    """``BODY`` / ``BODY_REQ`` / ``BODY_RESP``: the block body with Merkle
    root ``root`` on the data path — pushed, asked for by a node that lacks
    it (128 bytes, no ``batch``) or sent back; a body is its batch plus 64
    bytes."""

    __slots__ = ()
    KINDS = (BODY, BODY_REQ, BODY_RESP)
    FIELDS = (*HEAD, "root", "batch")

    @classmethod
    def of(cls, kind: str, root: str, batch: Optional[Batch] = None) -> "Body":
        size = 128 if batch is None else batch.size_bytes + 64
        return tuple.__new__(cls, (kind, (kind, root), None, size, root, batch))


class PanicProof(Record):
    """What a node reliably broadcasts on a chain inconsistency (Algorithm 2,
    lines b7/b12): the ``received`` and the ``local`` signed header that
    conflict at ``round``; 768 bytes."""

    __slots__ = ()
    FIELDS = ("round", "received", "local")
    size_bytes = 768


class Version(Record):
    """The chain version a recovering node atomically broadcasts
    (Algorithm 3): its ``blocks`` from the wave's ``recovery_round``; their
    size, at least 256 bytes."""

    __slots__ = ()
    FIELDS = ("recovery_round", "blocks", "size_bytes")

    @classmethod
    def of(cls, recovery_round: int, version: ChainVersion) -> "Version":
        return tuple.__new__(cls, (recovery_round, version.blocks,
                                   max(version.size_bytes, 256)))


@dataclass(slots=True)
class FastCertificate:
    """A fast-decided round: its value, and as node bitmasks its unanimous
    voters and the peers served it (which go wherever the certificate goes)."""

    value: int
    voters: int
    served: int = 0


class FireLedgerWorker:
    """One FireLedger instance at one node."""

    def __init__(self, env: Environment, network: Network, node_id: int,
                 worker_id: int, config: FireLedgerConfig, keystore: KeyStore,
                 recorder: Optional[MetricsRecorder] = None,
                 rng: Optional[random.Random] = None,
                 on_definite: Optional[Callable[[int, Block], None]] = None) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.worker_id = worker_id
        self.config = config
        self.keystore = keystore
        self.keys = keystore.key_for(node_id)
        self.recorder = recorder or MetricsRecorder(
            node_id, horizon_rounds=config.effective_retention_rounds,
            counters=COUNTERS)
        self.rng = rng or random.Random(node_id * 1009 + worker_id)
        self.on_definite = on_definite
        self.channel = f"fl/{worker_id}"

        self.cost = CryptoCostModel(config.machine)
        # Per-round CPU constants for the configured block shape, resolved
        # once instead of through cost-model calls in the round hot loop.
        self._round_costs = self.cost.round_profile(config.batch_size,
                                                    config.tx_size)
        self.chain = Blockchain(config.finality_depth, worker_id,
                                retention_rounds=config.effective_retention_rounds)
        self.txpool = TxPool(config.tx_size, self.rng,
                             max_pending=config.pool_max_pending)
        self.timer = AdaptiveTimer()
        self.detector = BenignFailureDetector(config.f,
                                              enabled=config.failure_detector)
        #: Panics awaiting recovery; every wait of the context reads this
        #: list, so it is only ever changed in place.
        self._pending_panics: list[tuple[int, Any]] = []
        self.context = ProtocolContext(env, network, node_id, self.channel,
                                       wrb.INBOX, panics=self._pending_panics)
        #: The inbox entry point of the fallback steps, which pass through
        #: the worker on their way there.
        self._put = self.context.inbox.put
        self._cpu = network.endpoint(node_id).cpu
        self.wrb = WeakReliableBroadcast(
            self.context, config.f, self.timer,
            payload_validator=self._validate_signed_header,
            acceptance_check=self._await_body if config.separate_headers else None)
        self.rb = ReliableBroadcast(self.context, config.f,
                                    self._on_panic_delivered)
        self.ab = AtomicBroadcast(self.context, config.f,
                                  self._on_version_delivered)
        # Everything arriving on this worker's channel, by kind.  The context
        # already bound the kinds of the records WRB waits for (votes and the
        # headers riding on them, pull and evidence responses, BBC_DECIDED
        # ...) straight to the inbox; the kinds below are served by the
        # worker or pass through it on the way there.
        network.bind(node_id, self.channel, {
            **dict.fromkeys(RB_KINDS, self.rb.on_message),
            **dict.fromkeys(AB_KINDS, self.ab.on_message),
            BODY: self._on_body,
            BODY_RESP: self._on_body,
            BODY_REQ: self._serve_body,
            OBBC_EV_REQ: self._on_evidence_request,
            WRB_PULL_REQ: self._serve_pull,
            **dict.fromkeys(Step.KINDS, self._on_fallback_step),
        })

        # --- data path state -------------------------------------------------
        self._bodies: dict[str, Batch] = {}
        self._body_events: dict[str, Any] = {}
        self._body_order: deque[str] = deque()
        self._decided_roots: deque[str] = deque()
        self._ready_bodies: deque[str] = deque()
        self._body_ready_at: dict[str, float] = {}
        self._evidence_by_round: dict[int, SignedHeader] = {}
        self._fast_certs: dict[int, FastCertificate] = {}

        # --- round state ------------------------------------------------------
        self.round = 0
        self.schedule = list(range(config.n_nodes))
        self.proposer_pointer = 0
        self.full_mode = True
        self.recent_proposers: deque[int] = deque(maxlen=max(config.f, 1))
        self._last_definite_emitted = -1

        # --- recovery state ---------------------------------------------------
        self._version_log: list[tuple[int, int, ChainVersion]] = []
        self._version_seq = 0
        self._version_watermark = -1
        self._version_event = env.event()
        self._recovered_through = -1

    # ======================================================================
    # message handlers (bound by kind in __init__, called by the network's
    # final delivery step)
    # ======================================================================
    def _on_evidence_request(self, message: Message) -> None:
        self._serve_evidence(message)
        self._serve_fast_certificate(message)

    def _on_fallback_step(self, message: Message) -> None:
        """A peer's fallback BBC step: offer it the fast-path certificate (if
        this node decided the round that way), then file the message."""
        self._serve_fast_certificate(message)
        self._put(message)

    # ----------------------------------------------------------- data path
    def _on_body(self, message: Message) -> None:
        body = message.payload
        if body.root in self._bodies:
            return
        # Checked from a zero-delay timer, behind everything this instant
        # already queued: arming the hold here would give its timer an
        # earlier sequence number and reorder equal-time ties.
        self.env.call_later(0.0, self._check_body, body)

    def _body_hash_cost(self, batch: Batch) -> float:
        """Merkle re-hash time for ``batch`` (profiled full-body fast path)."""
        costs = self._round_costs
        if batch.size_bytes == costs.body_bytes:
            return costs.body_hash
        return self.cost.hash_time(batch.size_bytes)

    def _check_body(self, body: Body) -> None:
        """Re-hash a received body to check its Merkle root — the
        receiver-side share of the Figure 5 cost model — as one CPU hold
        whose end stores it."""
        cost = self._body_hash_cost(body.batch)
        if cost > 0:
            self._cpu.hold(cost, partial(self._store_body, body))
        else:
            self._store_body(body)

    def _store_body(self, body: Body, _arg: Any = None) -> None:
        if body.batch.root == body.root:  # else corrupted: ignore it
            self._keep_body(body.root, body.batch)

    def _keep_body(self, root: str, batch: Batch) -> None:
        self._bodies[root] = batch
        self._body_order.append(root)
        event = self._body_events.pop(root, None)
        if event is not None and not event.triggered:
            event.succeed()

    def has_body(self, root: str) -> bool:
        """Whether the body with Merkle root ``root`` has been received."""
        return root in self._bodies

    def _body_event(self, root: str):
        """The event a body not yet stored triggers when it is."""
        return self._body_events.setdefault(root, self.env.event())

    def _serve_body(self, message: Message) -> None:
        root = message.payload.root
        batch = self._bodies.get(root)
        if batch is None:
            return
        self.context.send(message.sender, Body.of(BODY_RESP, root, batch))

    def _serve_evidence(self, message: Message) -> None:
        round_number = message.payload.round
        self.context.send(message.sender, Evidence.of(
            round_number, self._evidence_by_round.get(round_number)))

    def _serve_fast_certificate(self, message: Message) -> None:
        """Answer a fallback participant with the fast-path decision certificate.

        If this node already decided a round on the OBBC fast path and a peer
        is running the fallback BBC for that round (we see its BBC traffic or
        its evidence request), reply once with the unanimous vote set, rebuilt
        from the voter bitmask, so the peer can terminate — the lazily-served
        equivalent of Algorithm 4's lines OB26-OB27.
        """
        if type(message.payload) not in (Step, EvidenceRequest):
            return
        round_number = message.payload.round
        certificate = self._fast_certs.get(round_number)
        peer = 1 << message.sender
        if certificate is None or certificate.served & peer:
            return
        certificate.served |= peer
        voters, value = certificate.voters, certificate.value
        votes = dict.fromkeys([node for node in range(voters.bit_length())
                               if voters >> node & 1], value)
        self.context.send(message.sender,
                          Decided.of(("bbc", round_number), value, votes))

    def _serve_pull(self, message: Message) -> None:
        round_number = message.payload.round
        evidence = self._evidence_by_round.get(round_number)
        if evidence is None:
            return
        self.context.send(message.sender,
                          Header.of(WRB_PULL_RESP, round_number, evidence))

    # ======================================================================
    # proposing
    # ======================================================================
    def _charge_background(self, duration: float) -> None:
        """Consume CPU time without blocking the caller (data-path work)."""
        if duration <= 0:
            return
        self.env.call_later(0.0, self._cpu.hold, duration)

    def _prepare_body(self) -> str:
        """Assemble a transaction batch, compute its root and disseminate it."""
        batch = self.txpool.take_batch(self.config.batch_size,
                                       fill_random=self.config.fill_blocks)
        root = batch.root
        self._charge_background(self._body_hash_cost(batch))
        self._keep_body(root, batch)
        self._ready_bodies.append(root)
        if self.config.separate_headers:
            self._disseminate_body(root, batch)
            # The body may be proposed once its dissemination has drained from
            # this node's egress queue (flow control, Section 7.2).
            endpoint = self.network.endpoint(self.node_id)
            self._body_ready_at[root] = endpoint.bulk_egress_completion
        else:
            self._body_ready_at[root] = self.env.now
        return root

    def _disseminate_body(self, root: str, batch: Batch) -> None:
        self.context.broadcast(Body.of(BODY, root, batch))

    def prime_bodies(self):
        """Process: pre-disseminate the first block body (data path warm-up).

        Workers stagger their first dissemination slightly so that a node
        starting ``workers`` instances does not flood its NIC with every
        initial body at the same instant (the paper's flow control plays the
        same role at start-up).
        """
        yield self.env.timeout(self.worker_id * 0.002)
        self._prepare_body()

    def _next_ready_root(self):
        """Root of the next body to propose (refilling the pipeline)."""
        while not self._ready_bodies:
            self._prepare_body()
        if len(self._ready_bodies) < MAX_OUTSTANDING_BODIES:
            self._prepare_body()
        return self._ready_bodies[0]

    def _maybe_restock_bodies(self) -> None:
        """Prepare another body when the pipeline and the NIC have room."""
        endpoint = self.network.endpoint(self.node_id)
        if (len(self._ready_bodies) < MAX_OUTSTANDING_BODIES
                and endpoint.nic_backlog <= FLOW_CONTROL_BACKLOG):
            self._prepare_body()

    def _consume_ready_root(self, root: str) -> None:
        if self._ready_bodies and self._ready_bodies[0] == root:
            self._ready_bodies.popleft()
            self._body_ready_at.pop(root, None)
        self._maybe_restock_bodies()

    def _select_proposal_batch(self) -> Batch:
        """Pick the batch for this proposal, honouring flow control.

        A full body is proposed only if its dissemination has already drained
        from the egress queue; otherwise the round carries an empty block so
        that the chain keeps moving while the data path catches up
        (Section 7.2's flow control).
        """
        if not self.config.separate_headers:
            return self._bodies[self._next_ready_root()]
        self._maybe_restock_bodies()
        if self._ready_bodies:
            root = self._ready_bodies[0]
            if self._body_ready_at.get(root, 0.0) <= self.env.now:
                return self._bodies[root]
        return Batch()

    def _make_header(self, round_number: int,
                     previous_digest: str) -> SignedHeader:
        """Create and sign the header for ``round_number`` on top of ``previous_digest``."""
        batch = self._select_proposal_batch()
        header = header_for_batch(round_number, self.node_id, previous_digest,
                                  batch, worker_id=self.worker_id,
                                  created_at=self.env.now)
        signature = self.keys.sign(header.digest)
        self._charge_background(self._round_costs.header_sign)
        self.recorder.count("signatures")
        payload = SignedHeader((header, signature))
        self._evidence_by_round[round_number] = payload
        self.recorder.record_event(self.worker_id, round_number,
                                   EVENT_BLOCK_PROPOSAL, header.created_at,
                                   tx_count=header.tx_count)
        self.recorder.record_event(self.worker_id, round_number,
                                   EVENT_HEADER_PROPOSAL, self.env.now)
        return payload

    # ======================================================================
    # validation hooks used by WRB / OBBC
    # ======================================================================
    def _validate_signed_header(self, round_number: int, proposer: int,
                                payload: Any) -> bool:
        """Synchronous signature/identity validation of a header payload."""
        if type(payload) is not SignedHeader:
            return False
        header, signature = payload
        if header is None or signature is None:
            return False
        if header.round_number != round_number or header.proposer != proposer:
            return False
        if header.worker_id != self.worker_id:
            return False
        return self.keystore.verify(signature, proposer, header.digest)

    def _stamp_proposal(self, header) -> None:
        """Record A and B for a received proposal: both at acceptance time
        (a receiver sees the body and the header arrive, not being made)."""
        now = self.env.now
        self.recorder.record_event(self.worker_id, header.round_number,
                                   EVENT_BLOCK_PROPOSAL, now,
                                   tx_count=header.tx_count)
        self.recorder.record_event(self.worker_id, header.round_number,
                                   EVENT_HEADER_PROPOSAL, now)

    def _await_body(self, payload: SignedHeader, deadline: float):
        """Generator acceptance check: charge verification CPU, wait for the body."""
        header = payload.header
        yield from self.context.use_cpu(self._round_costs.header_verify)
        if not self.config.separate_headers or header.tx_count == 0:
            self._stamp_proposal(header)
            return True
        if self.has_body(header.tx_root):
            self._stamp_proposal(header)
            return True
        remaining = deadline - self.env.now
        if remaining <= 0:
            return False
        event = self._body_event(header.tx_root)
        yield self.env.wait(event, remaining)
        available = self.has_body(header.tx_root)
        if available:
            self._stamp_proposal(header)
        return available

    # ======================================================================
    # panic / recovery plumbing
    # ======================================================================
    def _on_panic_delivered(self, origin: int, tag: Any, proof: Any) -> None:
        if not self._valid_proof(proof):
            return
        round_number = proof.round
        if round_number <= self._recovered_through:
            return
        self._pending_panics.append((round_number, proof))
        self.context.notify_interrupt()

    def _valid_proof(self, proof: Any) -> bool:
        """Check a panic proof: two validly signed, conflicting headers."""
        if type(proof) is not PanicProof or proof.round is None:
            return False
        for item in (proof.received, proof.local):
            if type(item) is not SignedHeader:
                return False
            header, signature = item
            if header is None:
                return False
            if header.proposer < 0:
                continue  # genesis needs no signature
            if signature is None:
                return False
            if not self.keystore.verify(signature, header.proposer, header.digest):
                return False
        return True

    def _on_version_delivered(self, origin: int, payload: Any) -> None:
        if type(payload) is not Version:
            return
        version = ChainVersion(sender=origin, blocks=tuple(payload.blocks))
        self._version_seq += 1
        self._version_log.append((self._version_seq, origin, version))
        self._version_event.succeed()  # always pending: replaced below
        self._version_event = self.env.event()
        # Seeing a peer's recovery version means a recovery wave is under way;
        # join it even if this node's own proof threshold did not fire, so the
        # wave collects its n - f versions promptly and no participant stalls.
        recovery_round = payload.recovery_round
        if recovery_round > self._recovered_through and not self._pending_panics:
            self._pending_panics.append((recovery_round, {"joined": origin}))
            self.context.notify_interrupt()

    # ======================================================================
    # the main round loop (Algorithm 2)
    # ======================================================================
    def run(self):
        """The worker's main process.  It ends at the first round boundary
        it reaches crashed, and no recovery restarts it."""
        yield from self.prime_bodies()
        while True:
            if self.network.is_crashed(self.node_id):
                self._stop_filing()
                return
            try:
                if self._pending_panics:
                    yield from self._recover()
                    continue
                yield from self._run_round()
            except PanicInterrupt:
                yield from self._recover()

    def _stop_filing(self) -> None:
        """Once :meth:`run` has returned nothing reads the inbox: drop what
        it holds, and drop every kind that would be filed there (votes and
        the headers riding on them included) instead of filing it.  The
        handlers that answer peers stay bound; a fallback step is still
        offered the fast-path certificate."""
        self.network.bind(self.node_id, self.channel, {
            **dict.fromkeys([kind for record in wrb.INBOX
                             for kind in record.KINDS], discard),
            **dict.fromkeys(Step.KINDS, self._serve_fast_certificate),
        })
        self.context.inbox.discard_below(math.inf)

    def _current_proposer(self) -> int:
        return self.schedule[self.proposer_pointer % len(self.schedule)]

    def _advance_proposer(self) -> None:
        self.proposer_pointer += 1

    def _skip_recent_proposers(self) -> bool:
        """Algorithm 2, lines b1-b3; returns whether anyone was skipped."""
        skipped = 0
        while (self._current_proposer() in self.recent_proposers
               and skipped <= len(self.schedule)):
            self._advance_proposer()
            skipped += 1
        return skipped > 0

    def _refresh_schedule(self) -> None:
        """Optionally re-draw the proposer permutation from a definite block hash."""
        every = self.config.permute_every
        if every <= 0 or self.round == 0 or self.round % every != 0:
            return
        seed_round = self.round - 2 * (self.config.f + 2)
        seed_block = self.chain.block_at_round(seed_round)
        if seed_block is None or not self.chain.is_definite(seed_round):
            return
        self.schedule = proposer_permutation(self.config.n_nodes, seed_block.digest)

    def _run_round(self):
        round_number = self.round
        self._refresh_schedule()
        if self._skip_recent_proposers():
            self.detector.invalidate()
        proposer = self._current_proposer()

        # Full mode: the proposer pushes its block explicitly because the
        # previous iteration delivered nil (or this is the first round).
        if proposer == self.node_id and self.full_mode:
            payload = self._make_header(round_number, self.chain.head.digest)
            if not self.config.separate_headers:
                root = payload.header.tx_root
                self._disseminate_body(root, self._bodies[root])
            self.wrb.broadcast(round_number, payload)

        # Piggyback: the *next* proposer ships its header for round r+1 on its
        # OBBC vote for round r.
        next_proposer = self.schedule[(self.proposer_pointer + 1) % len(self.schedule)]
        piggyback_provider = None
        if next_proposer == self.node_id:
            piggyback_provider = self._piggyback_provider(round_number)

        skip_wait = (self.detector.is_suspected(proposer)
                     and proposer != self.node_id)
        delivery = yield from self.wrb.deliver(round_number, proposer,
                                               piggyback_provider=piggyback_provider,
                                               skip_wait=skip_wait)
        self.recorder.record_round_outcome(delivery.obbc.fast_path, delivery.delivered)
        if delivery.obbc.fast_path:
            self._fast_certs[round_number] = FastCertificate(
                delivery.obbc.decision, delivery.obbc.voters)

        if not delivery.delivered:
            # Lines 16-20: switch proposer and retry the same round.
            self.full_mode = True
            self.detector.record_timeout(proposer)
            self._advance_proposer()
            return

        self.detector.record_delivery(proposer)
        self.full_mode = False
        payload = delivery.payload
        header: BlockHeader = payload.header
        self._evidence_by_round.setdefault(round_number, payload)

        # Lines b4-b10: validate the chain linkage; any inconsistency is a
        # cryptographically attributable proof of misbehaviour.
        if not self._chain_consistent(header, proposer):
            proof = self._build_proof(round_number, payload)
            self.rb.broadcast(("panic", round_number, self.node_id), proof)
            self._pending_panics.append((round_number, proof))
            yield from self._recover()
            return

        block = yield from self._assemble_block(payload)
        self.chain.append(block)
        if self.chain.retention_rounds is not None and header.tx_count > 0:
            self._decided_roots.append(header.tx_root)
        self._consume_ready_root(header.tx_root)
        self.recorder.record_event(self.worker_id, round_number,
                                   EVENT_TENTATIVE_DECISION, self.env.now,
                                   tx_count=header.tx_count)
        self._emit_definite()
        self.recent_proposers.append(proposer)
        self._advance_proposer()
        self.round += 1
        self._bound_caches()
        self.context.inbox.discard_below(self.round)

    def _piggyback_provider(self, current_round: int):
        def _provide(delivered_payload):
            if delivered_payload is None:
                return None
            payload = self._make_header(current_round + 1,
                                        delivered_payload.header.digest)
            return Header.of(WRB_HEADER, current_round + 1, payload)
        return _provide

    def _chain_consistent(self, header: BlockHeader, proposer: int) -> bool:
        return (header.previous_digest == self.chain.head.digest
                and header.round_number == self.chain.height + 1
                and header.proposer == proposer)

    def _build_proof(self, round_number: int,
                     received_payload: SignedHeader) -> PanicProof:
        local_head = self.chain.head
        local_payload = self._evidence_by_round.get(local_head.round_number)
        if local_payload is None:
            local_payload = SignedHeader((
                local_head.header,
                local_head.signature or self.keys.sign(local_head.digest)))
        return PanicProof((round_number, received_payload, local_payload))

    def _assemble_block(self, payload: SignedHeader):
        header, signature = payload
        if header.tx_count == 0:
            return Block(header=header, batch=Batch(), signature=signature)
        batch = self._bodies.get(header.tx_root)
        attempts = 0
        while batch is None:
            attempts += 1
            self.context.broadcast(Body.of(BODY_REQ, header.tx_root))
            event = self._body_event(header.tx_root)
            yield self.env.wait(event, self.timer.current * attempts)
            batch = self._bodies.get(header.tx_root)
        return Block(header=header, batch=batch, signature=signature)

    def _emit_definite(self) -> None:
        definite_height = self.chain.definite_height
        while self._last_definite_emitted < definite_height:
            self._last_definite_emitted += 1
            block = self.chain.block_at_round(self._last_definite_emitted)
            if block is None:
                continue
            # D before the callback: the merge releases a block only once it
            # was offered, so a round's E can never precede its own D.
            self.recorder.record_event(self.worker_id, block.round_number,
                                       EVENT_DEFINITE_DECISION, self.env.now,
                                       tx_count=block.tx_count)
            if self.on_definite is not None:
                self.on_definite(self.worker_id, block)

    def _bound_caches(self) -> None:
        """Evict per-round caches past the retention window (soak runs).

        Only active when the config bounds chain retention: the evidence /
        fast-certificate maps and the received-body store then keep at most a
        retention window of history (a correct peer can only lag by rounds
        still inside it; anything older is definite everywhere).

        Bodies are evicted primarily through ``_decided_roots`` — a body may
        only be dropped once its block was decided at least a retention
        window ago, because an *undecided* body (pre-disseminated up to a
        full proposer rotation ahead of its round) is still needed by every
        node to accept that round.  The ``_body_order`` sweep is a safety
        valve for bodies that never decide (an equivocator's orphans), with a
        cap generous enough (four proposer rotations of pipelined bodies)
        that it cannot touch a body the chain is still waiting for.
        """
        retention = self.chain.effective_retention
        if retention is None:
            return
        cutoff = self.round - retention
        for cache in (self._evidence_by_round, self._fast_certs):
            if len(cache) > retention:
                for stale_round in [r for r in cache if r < cutoff]:
                    del cache[stale_round]
        while len(self._decided_roots) > retention:
            self._drop_body(self._decided_roots.popleft())
        body_cap = max(2 * retention,
                       4 * self.config.n_nodes * MAX_OUTSTANDING_BODIES)
        for _ in range(len(self._body_order)):
            if len(self._body_order) <= body_cap:
                break
            root = self._body_order.popleft()
            if root in self._ready_bodies:
                self._body_order.append(root)  # still pipeline-pending
                continue
            self._drop_body(root)

    def _drop_body(self, root: str) -> None:
        self._bodies.pop(root, None)
        self._body_ready_at.pop(root, None)

    # ======================================================================
    # recovery (Algorithm 3)
    # ======================================================================
    def _recover(self):
        if not self._pending_panics:
            return
        recovery_round = max(entry[0] for entry in self._pending_panics)
        self._pending_panics.clear()
        self.recorder.record_recovery(self.env.now)

        self.ab.broadcast(Version.of(
            recovery_round, self.chain.version_for_recovery(recovery_round)))

        quorum = self.config.n_nodes - self.config.f
        deadline_factor = 1
        while True:
            fresh = [entry for entry in self._version_log
                     if entry[0] > self._version_watermark
                     and self._version_valid(entry[2])]
            if len(fresh) >= quorum:
                break
            yield self.env.wait(self._version_event,
                                self.ab.REQUEST_TIMEOUT * deadline_factor)
            deadline_factor = min(deadline_factor + 1, 8)

        selected = fresh[:quorum]
        self._version_watermark = selected[-1][0]
        self._adopt_best_version([entry[2] for entry in selected])

        # Post-recovery state (Algorithm 3, lines 17-18).
        self.round = self.chain.height + 1
        # The recovery may rewind the round counter; per-round caches from the
        # abandoned timeline must not leak into the re-run rounds.
        for cache in (self._fast_certs, self._evidence_by_round):
            for stale_round in [r for r in cache if r >= self.round]:
                del cache[stale_round]
        self._resync_proposer_pointer()
        self.full_mode = True
        self.detector.invalidate()
        self._recovered_through = recovery_round
        self._pending_panics[:] = [entry for entry in self._pending_panics
                                   if entry[0] > recovery_round]
        self._bound_caches()
        self.context.inbox.discard_below(self.round)

    def _version_valid(self, version: ChainVersion) -> bool:
        """Objective validity of a recovery version (Algorithm 3, line 11):
        the paper's ``valid`` — every block signed by its proposer, hash-linked
        to its predecessor, one round after it — plus Lemma 5.3.2's distinct
        proposers.  Bodies are not re-hashed; a version ships decided blocks."""
        blocks = version.blocks
        # validate_chain excuses the genesis placeholder (proposer -1, no
        # signature); a version holds decided blocks only, so here a block
        # without a real proposer's signature is invalid.
        if any(block.signature is None or block.proposer < 0 for block in blocks):
            return False
        try:
            validate_chain(blocks, self.keystore)
        except ValidationError:
            return False
        return distinct_proposers_window(blocks, self.config.f + 1)

    def _adopt_best_version(self, versions: list[ChainVersion]) -> None:
        candidates = sorted(versions, key=lambda v: -v.newest_round)
        if not candidates:
            return
        best_round = candidates[0].newest_round
        for version in versions:  # preserve delivery order among the best
            if version.newest_round != best_round or version.is_empty:
                continue
            try:
                removed = self.chain.adopt_version(version)
            except ValueError:
                continue
            for block in removed:
                kept = any(b.digest == block.digest for b in self.chain.blocks)
                if not kept:
                    self.recorder.discard_block(self.worker_id, block.round_number)
                    self.txpool.requeue(list(block.transactions))
            self._emit_definite()
            return

    def _resync_proposer_pointer(self) -> None:
        head = self.chain.head
        if head.proposer < 0:
            self.proposer_pointer = 0
            self.recent_proposers.clear()
            return
        try:
            index = self.schedule.index(head.proposer)
        except ValueError:
            index = 0
        self.proposer_pointer = index + 1
        recent = [b.proposer for b in self.chain.blocks[-self.config.f:]
                  if b.round_number >= 0]
        self.recent_proposers = deque(recent, maxlen=max(self.config.f, 1))
