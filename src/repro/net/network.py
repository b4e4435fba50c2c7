"""The network contract (:class:`BaseNetwork`) and its simulated backend
(:class:`Network`); :mod:`repro.runtime.network` is the loopback-TCP one."""

from __future__ import annotations

import random
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.crypto.cost_model import M5_XLARGE, MachineSpec
from repro.net.latency import LatencyModel, SingleDatacenterLatency
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.sim import Environment, Resource

#: Messages above this size travel on the bulk (data-path) lane.
BULK_MESSAGE_THRESHOLD = 8 * 1024


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters, useful for Table 1 style accounting."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    per_kind: dict = field(default_factory=lambda: defaultdict(int))

    def record_send(self, channel: str, kind: str, wire_bytes: int,
                    copies: int = 1) -> None:
        """Count ``copies`` messages of ``wire_bytes`` each leaving a sender
        (fault-dropped copies included: they are sent *and* dropped)."""
        self.messages_sent += copies
        self.bytes_sent += copies * wire_bytes
        self.per_kind[channel, kind] += copies

    def messages_of_kind(self, kind: str, channel: Optional[str] = None) -> int:
        """Number of messages sent with ``kind`` (optionally on one channel)."""
        total = 0
        for (msg_channel, msg_kind), count in self.per_kind.items():
            if msg_kind != kind:
                continue
            if channel is not None and msg_channel != channel:
                continue
            total += count
        return total


def discard(message) -> None:
    """Catch-all of a protocol node: traffic no binding claims is dropped,
    not buffered (nothing would ever drain it).  With its bindings cleared
    as well, this is a silent (fail-stop) node."""


class BaseEndpoint:
    """Per-node attachment point: routing table, CPU, crash flag, byte counters.

    Where a delivered message goes is decided here, once: ``handlers`` maps
    ``(channel, kind)`` to the callable that takes the message
    (:meth:`BaseNetwork.bind` fills it while the node is built); what no
    binding matches goes to the ``router`` catch-all if one is set, else it
    is appended to ``mailbox``.

    A backend's endpoint adds its NIC model: ``reset_lanes()`` (the recover
    contract's empty-NIC guarantee) and the occupancy views FireLedger's flow
    control reads — ``nic_backlog`` and ``bulk_egress_completion``.
    """

    __slots__ = ("env", "node_id", "machine", "mailbox", "cpu", "crashed",
                 "bytes_sent", "bytes_received", "handlers", "router")

    def __init__(self, env: Environment, node_id: int, machine: MachineSpec) -> None:
        self.env = env
        self.node_id = node_id
        self.machine = machine
        #: Deliveries nothing claimed, oldest first.
        self.mailbox: list[Message] = []
        self.cpu = Resource(env, capacity=machine.cores)
        self.crashed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.handlers: dict[tuple[str, str], Callable[[Message], None]] = {}
        #: Optional catch-all for unbound traffic (tests and probes record
        #: through it; protocol nodes install :func:`discard`).
        self.router: Optional[Callable[[Message], None]] = None


class Endpoint(BaseEndpoint):
    """Simulated endpoint: NIC serialisation as reserved lane time."""

    __slots__ = ("_tx_free_at", "_rx_free_at")

    def __init__(self, env: Environment, node_id: int, machine: MachineSpec) -> None:
        super().__init__(env, node_id, machine)
        # The data path (block bodies) and the consensus path (headers, votes)
        # travel over independent gRPC streams in the paper's implementation,
        # so bulk transfers do not head-of-line-block small control messages.
        # We model that with two independent occupancy lanes per direction.
        self._tx_free_at = {"bulk": 0.0, "ctrl": 0.0}
        self._rx_free_at = {"bulk": 0.0, "ctrl": 0.0}

    def reset_lanes(self) -> None:
        """Clear all queued NIC occupancy (both directions, both lanes).

        Mutates the lane dicts in place: :meth:`Network._reserve` reads the
        ingress ones through ``Network._rx_lanes``, references it holds for
        the endpoint's lifetime.
        """
        tx = self._tx_free_at
        tx["bulk"] = tx["ctrl"] = 0.0
        rx = self._rx_free_at
        rx["bulk"] = rx["ctrl"] = 0.0

    def _transfer_cost(self, size_bytes: int) -> float:
        """Time one message occupies the RPC stack + NIC on one side."""
        return (size_bytes / self.machine.egress_bandwidth
                + size_bytes * self.machine.network_stack_per_byte
                + self.machine.network_stack_per_message)

    @property
    def nic_backlog(self) -> float:
        """Seconds of queued bulk egress traffic on this node's NIC."""
        return max(0.0, self._tx_free_at["bulk"] - self.env.now)

    @property
    def bulk_egress_completion(self) -> float:
        """Time at which everything queued on the bulk egress lane is sent."""
        return self._tx_free_at["bulk"]


class BaseNetwork:
    """Fully connected message-passing network between ``n_nodes`` endpoints.

    The contract, stated once for every backend: endpoint lookup and crash
    state, the ``send`` / ``broadcast`` return contracts, the fault question
    and rng draw order, the ``stats`` accounting, the routing table
    (:meth:`bind`) and the final delivery step.  A backend supplies its
    endpoint class plus "move this envelope to these receivers after these
    delays" (:meth:`_transmit`, :meth:`_transmit_copies`) and may hook
    :meth:`_on_crash` / :meth:`_on_recover`.

    One :class:`~repro.net.message.Message` envelope is built per ``send``
    or ``broadcast``; it names no receiver, so the receiver id rides beside
    it on every path — to a copy's fault ``fate``, to the backend's movers
    and to the final delivery step — and every receiver of a broadcast is
    handed the same immutable object.

    A fault controller (a run's
    :class:`~repro.scenarios.faultplan.FaultSchedule`) is asked once per
    ``broadcast`` or non-loopback ``send`` of a live sender:
    ``link_fault(sender, now)`` is ``None`` when no fault touches the
    copies, else a ``fate(receiver, rng)`` each copy meets — ``None`` to
    drop it, else the delay it adds.
    Drops are decided *before* anything reaches the backend, so injected
    losses never consume egress capacity.  Crashed endpoints neither send
    nor receive, and in-flight messages to a node that crashes before
    delivery are counted as dropped.  Links are otherwise reliable (no
    loss, no duplication, no reordering beyond what differing latencies
    produce), matching the system model of Section 3.1.
    """

    #: Endpoint type the backend attaches per node.
    endpoint_class: type = BaseEndpoint

    def __init__(self, env: Environment, n_nodes: int,
                 latency_model: Optional[LatencyModel] = None,
                 machine: MachineSpec = M5_XLARGE,
                 rng: Optional[random.Random] = None,
                 fault_controller: Optional[Any] = None) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.env = env
        self.n_nodes = n_nodes
        self.latency_model = latency_model or SingleDatacenterLatency()
        self.machine = machine
        self.rng = rng or random.Random(0)
        self.fault_controller = fault_controller
        self.stats = NetworkStats()
        self.endpoints = [self.endpoint_class(env, node_id, machine)
                          for node_id in range(n_nodes)]
        self._deliver = self._make_completer()
        # Each sender's receivers: everyone else, in id order.
        ids = tuple(range(n_nodes))
        self._receivers = [ids[:sender] + ids[sender + 1:] for sender in ids]

    # ----------------------------------------------------------------- nodes
    def endpoint(self, node_id: int):
        """The endpoint of ``node_id``."""
        return self.endpoints[node_id]

    def bind(self, node_id: int, channel: str,
             handlers: Mapping[str, Callable[[Message], None]]) -> None:
        """Route ``node_id``'s incoming ``channel`` traffic: a message of
        kind ``K`` is handed to ``handlers[K]``.  Binding a kind again
        replaces its handler."""
        table = self.endpoints[node_id].handlers
        for kind, handler in handlers.items():
            table[channel, kind] = handler

    def is_crashed(self, node_id: int) -> bool:
        """Whether ``node_id`` has crashed."""
        return self.endpoints[node_id].crashed

    def crash(self, node_id: int) -> None:
        """Crash a node: it stops sending and receiving until recovered.

        Idempotent — re-crashing a crashed node is a no-op, so overlapping
        fault sources (a fault schedule plus a churn adversary) compose.
        """
        endpoint = self.endpoints[node_id]
        if endpoint.crashed:
            return
        endpoint.crashed = True
        self._on_crash(node_id)

    def recover(self, node_id: int) -> None:
        """Undo a crash (no-op when the node is already up).

        A recovered node comes back with empty NIC lanes: whatever egress or
        ingress backlog its endpoint had accumulated before the crash died
        with the process, so it must not resume with phantom queued traffic.
        """
        endpoint = self.endpoints[node_id]
        if not endpoint.crashed:
            return
        endpoint.crashed = False
        endpoint.reset_lanes()
        self._on_recover(node_id)

    # ------------------------------------------------------------------ send
    def send(self, sender: int, receiver: int, channel: str, kind: str,
             payload: Any, size_bytes: int = MESSAGE_OVERHEAD_BYTES) -> Optional[Message]:
        """Send one message; returns its envelope, or ``None`` if dropped.

        ``None`` means the message never left: either the sender has crashed
        (nothing is recorded in ``stats``) or the fault controller dropped it
        (recorded as one message sent *and* one dropped).  A fault-controller
        drop is decided *before* the backend reserves or queues anything:
        dropped traffic consumes neither egress nor ingress time, so an
        injected loss cannot delay the sender's subsequent messages.  A
        non-``None`` return only promises the message is in flight — the
        receiver may still crash before the delivery completes.
        """
        if not 0 <= sender < self.n_nodes or not 0 <= receiver < self.n_nodes:
            raise ValueError(f"invalid endpoint ids sender={sender} receiver={receiver}")
        if self.endpoints[sender].crashed:
            return None
        env = self.env
        now = env.now
        message = Message(sender, channel, kind, payload, size_bytes, now)
        self.stats.record_send(channel, kind, message.size_bytes)

        if sender == receiver:
            # Local loopback: no NIC, no propagation, delivered immediately.
            env.call_later(0.0, partial(self._deliver, message), receiver)
            return message

        fault = self.fault_controller
        fate = None if fault is None else fault.link_fault(sender, now)
        delay = self._link_delay(message, receiver, fate)
        if delay is None:
            self.stats.messages_dropped += 1
            return None
        self._transmit(message, receiver, delay)
        return message

    def broadcast(self, sender: int, channel: str, kind: str, payload: Any,
                  size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                  include_self: bool = False) -> list[int]:
        """Send the same payload to every other node (clique dissemination).

        One envelope, one copy per receiver, in receiver order.  Returns the
        ids of the receivers whose copy is in flight: crashed senders return
        ``[]``; dropped copies are excluded and, as in :meth:`send`, count as
        sent *and* dropped without reaching the backend.  With
        ``include_self`` the loopback copy sits at its receiver-order slot.

        When no fault touches the sender's copies (no fault controller, or
        its ``link_fault`` answers ``None``) no copy drops: one
        :meth:`~repro.net.latency.LatencyModel.sample_block` call draws every
        link latency (the rng stream of per-copy ``sample`` calls), plus
        ``transfer_delay`` per copy where the model charges one.  Otherwise
        each copy meets its ``fate`` (:meth:`_link_delay`).  Either way the
        survivors go to the backend as one :meth:`_transmit_copies` call.
        """
        if not 0 <= sender < self.n_nodes:
            raise ValueError(f"invalid endpoint id sender={sender}")
        if self.endpoints[sender].crashed:
            return []
        env = self.env
        now = env.now
        message = Message(sender, channel, kind, payload, size_bytes, now)
        receivers = self._receivers[sender]
        fault = self.fault_controller
        fate = None if fault is None else fault.link_fault(sender, now)
        if fate is None:
            model = self.latency_model
            delays = model.sample_block(sender, receivers, self.rng)
            # Models that keep the base class's zero transfer_delay (every
            # link latency-bound only) skip the per-copy call.
            if type(model).transfer_delay is not LatencyModel.transfer_delay:
                transfer = model.transfer_delay
                wire_bytes = message.size_bytes
                delays = [delay + transfer(sender, receiver, wire_bytes)
                          for receiver, delay in zip(receivers, delays)]
        else:
            surviving: list[int] = []
            delays = []
            for receiver in receivers:
                delay = self._link_delay(message, receiver, fate)
                if delay is None:
                    self.stats.messages_dropped += 1
                    continue
                surviving.append(receiver)
                delays.append(delay)
            receivers = surviving
        if include_self:
            env.call_later(0.0, partial(self._deliver, message), sender)
        if receivers:
            self._transmit_copies(message, receivers, delays)
        copies = self.n_nodes if include_self else self.n_nodes - 1
        if copies:
            self.stats.record_send(channel, kind, message.size_bytes, copies)
        reached = list(receivers)
        if include_self:
            insort(reached, sender)
        return reached

    def _link_delay(self, message: Message, receiver: int,
                    fate: Optional[Callable]) -> Optional[float]:
        """One copy's link delay, or ``None`` if its ``fate`` drops it.
        Draws from the shared rng in a fixed order: the fate's loss draws,
        then ``sample``, then ``+ transfer_delay + extra``."""
        rng = self.rng
        extra = 0.0 if fate is None else fate(receiver, rng)
        if extra is None:
            return None
        model = self.latency_model
        sender = message.sender
        return (model.sample(sender, receiver, rng)
                + model.transfer_delay(sender, receiver, message.size_bytes)
                + extra)

    def _make_completer(self) -> Callable[[Message, int], None]:
        """Build the final delivery step, the same for every backend and
        every send shape (unicast, loopback, fan-out).

        One call per delivered copy — the hottest function in the simulator
        — hence a closure: the endpoint list and the stats are cell loads.
        Callers schedule it bound to the envelope (``partial(complete,
        message)``) with the receiver id as the kernel's one argument, so a
        broadcast's copies share one envelope and one bound callable.  A
        crashed receiver counts a drop; otherwise the copy is counted and
        the envelope handed to the receiver's ``(channel, kind)`` binding,
        else to its catch-all ``router``, else appended to its ``mailbox``.
        """
        endpoints = self.endpoints
        stats = self.stats

        def complete(message: Message, receiver: int) -> None:
            destination = endpoints[receiver]
            if destination.crashed:
                stats.messages_dropped += 1
                return
            destination.bytes_received += message.size_bytes
            stats.messages_delivered += 1
            try:
                handler = destination.handlers[message.route]
            except KeyError:
                handler = destination.router
                if handler is None:
                    handler = destination.mailbox.append
            handler(message)

        return complete

    # --------------------------------------------------------- backend hooks
    def _transmit(self, message: Message, receiver: int, delay: float) -> None:
        """Move one unicast ``message``; it is due ``delay`` seconds from now."""
        raise NotImplementedError

    def _transmit_copies(self, message: Message, receivers: Sequence[int],
                         delays: Sequence[float]) -> None:
        """Move one broadcast's surviving copies (one envelope)."""
        raise NotImplementedError

    def _on_crash(self, node_id: int) -> None:
        """Backend side of a crash (called once per up -> down transition)."""

    def _on_recover(self, node_id: int) -> None:
        """Backend side of a recovery (called once per down -> up transition)."""


class Network(BaseNetwork):
    """The simulated network: :class:`BaseNetwork` over the event kernel.

    Delivery of one message goes through, in order: sender-side RPC stack cost
    and NIC serialisation (shared across all protocol instances on the node),
    link propagation latency drawn from the latency model plus the model's
    size-dependent :meth:`~repro.net.latency.LatencyModel.transfer_delay`
    (non-zero only on bandwidth-capped WAN links), receiver-side RPC stack
    cost, then the shared final delivery step (see
    :meth:`BaseNetwork._make_completer`) routes it at the receiver endpoint.
    """

    endpoint_class = Endpoint

    def __init__(self, env: Environment, n_nodes: int, **options) -> None:
        super().__init__(env, n_nodes, **options)
        # The per-endpoint ingress lane dicts, stable for an endpoint's
        # lifetime (reset_lanes mutates them in place).
        self._rx_lanes = [endpoint._rx_free_at for endpoint in self.endpoints]

    def _reserve(self, message: Message, receivers: Sequence[int],
                 delays: Sequence[float]) -> list[float]:
        """Reserve NIC and ingress lane time for copies of ``message``;
        returns each copy's arrival time, in receiver order.

        The sender's NIC serialises the copies one after another on the
        message's lane: copy ``i`` is out ``i + 1`` transfer costs after the
        lane frees (not before now), a running sum.  Its floor is that time
        plus its link delay; the receiver's ingress lane then takes it from
        the later of the floor and the lane's own free time, for one more
        transfer cost (every endpoint runs the same machine spec).  A unicast
        is the one-copy case.
        """
        wire_bytes = message.size_bytes
        lane = "bulk" if wire_bytes > BULK_MESSAGE_THRESHOLD else "ctrl"
        source = self.endpoints[message.sender]
        cost = source._transfer_cost(wire_bytes)
        tx_free = source._tx_free_at
        free_at = tx_free[lane]
        now = self.env.now
        if free_at < now:
            free_at = now
        rx_lanes = self._rx_lanes
        times: list[float] = []
        times_append = times.append
        for receiver, delay in zip(receivers, delays):
            free_at += cost
            not_before = free_at + delay
            rx = rx_lanes[receiver]
            prior = rx[lane]
            if not_before < prior:
                not_before = prior
            received_at = not_before + cost
            rx[lane] = received_at
            times_append(received_at)
        tx_free[lane] = free_at
        source.bytes_sent += len(times) * wire_bytes
        return times

    def _transmit(self, message: Message, receiver: int, delay: float) -> None:
        self.env.call_later(
            self._reserve(message, (receiver,), (delay,))[0] - self.env.now,
            partial(self._deliver, message), receiver)

    def _transmit_copies(self, message: Message, receivers: Sequence[int],
                         delays: Sequence[float]) -> None:
        """One delivery train for all copies of the broadcast."""
        self.env.schedule_batch(self._reserve(message, receivers, delays),
                                receivers, partial(self._deliver, message))
