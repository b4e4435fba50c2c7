"""The simulated network as it was with two broadcast paths, kept as a test
oracle.

:class:`ReferenceNetwork` is the former :class:`repro.net.network.Network`:
a fault-free fan-out fast path (``broadcast`` with the NIC prefix sum and the
ingress reservation written inline), the per-copy contract loop it fell back
to under a fault controller or on a one-node network, and the per-copy
reservation that loop and unicast went through (``_arrival`` →
:meth:`ReferenceEndpoint.reserve_nic` / :meth:`ReferenceEndpoint.reserve_ingress`).
The code is verbatim; the only mechanical edits are that the fast path calls
:meth:`ReferenceNetwork._per_copy_broadcast` (the former
``BaseNetwork.broadcast``) where it called ``super().broadcast``, and that the
endpoint is a subclass carrying the three removed methods.

It also keeps the two-method fault contract it asked per copy
(``should_drop``, then ``sample``, then ``extra_delay``): :meth:`send` and
:meth:`_link_delay` are the former ``BaseNetwork`` ones, and a run's
:class:`~repro.scenarios.faultplan.FaultSchedule` is wrapped in the per-copy
walk it answered with (``tests/reference_faults.py::walk``), where the
shipped network asks the schedule once per send or broadcast.

The shipped network draws and reserves one way for both: a copy's floor is
``NIC-free time + (sample + transfer_delay)``.  That is the per-copy path's
addition order; the fast path added ``(NIC-free time + sample) +
transfer_delay``, which differs in the last bit on bandwidth-capped links.
Run under :class:`NullController` (never drops, adds ``0.0``, draws
nothing), the oracle takes the per-copy path, which is the expected value
there.  Tests select it by substituting the class
:func:`repro.core.cluster.run_cluster` instantiates (:func:`use_reference`).
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, repeat
from typing import Any, Optional

from repro.net.latency import LatencyModel
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import BULK_MESSAGE_THRESHOLD, BaseNetwork, Endpoint
from repro.scenarios.faultplan import FaultSchedule
from repro.sim import Environment
from tests import reference_faults


class NullController:
    """A fault controller that never drops, adds ``0.0`` and draws nothing:
    it only moves the oracle's broadcasts onto its per-copy path."""

    def should_drop(self, message, receiver, now, rng) -> bool:
        return False

    def extra_delay(self, message, receiver, now, rng) -> float:
        return 0.0


class ReferenceEndpoint(Endpoint):
    """The simulated endpoint with its per-copy lane reservations."""

    __slots__ = ()

    @staticmethod
    def _lane(size_bytes: int) -> str:
        return "bulk" if size_bytes > BULK_MESSAGE_THRESHOLD else "ctrl"

    def reserve_nic(self, size_bytes: int) -> float:
        """Reserve egress (send-side) time for a payload; returns its end time."""
        lane = self._lane(size_bytes)
        start = max(self.env.now, self._tx_free_at[lane])
        self._tx_free_at[lane] = start + self._transfer_cost(size_bytes)
        self.bytes_sent += size_bytes
        return self._tx_free_at[lane]

    def reserve_ingress(self, size_bytes: int, not_before: float) -> float:
        """Reserve receive-side processing time; returns the completion time."""
        lane = self._lane(size_bytes)
        start = max(not_before, self._rx_free_at[lane])
        self._rx_free_at[lane] = start + self._transfer_cost(size_bytes)
        return self._rx_free_at[lane]


class ReferenceNetwork(BaseNetwork):
    """The simulated network with a fan-out fast path beside the per-copy
    contract loop."""

    endpoint_class = ReferenceEndpoint

    def __init__(self, env: Environment, n_nodes: int, **options) -> None:
        super().__init__(env, n_nodes, **options)
        if type(self.fault_controller) is FaultSchedule:
            self.fault_controller = reference_faults.walk(self.fault_controller)
        # Broadcast fast-path caches: the per-endpoint ingress lane dicts
        # (stable for an endpoint's lifetime — reset_lanes mutates in place)
        # and each sender's receiver sequence (everyone else, in id order).
        self._rx_lanes = [endpoint._rx_free_at for endpoint in self.endpoints]
        ids = tuple(range(n_nodes))
        self._receivers = [ids[:sender] + ids[sender + 1:] for sender in ids]

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

        delay = self._link_delay(message, receiver, now)
        if delay is None:
            self.stats.messages_dropped += 1
            return None
        self._transmit(message, receiver, delay)
        return message

    def _link_delay(self, message: Message, receiver: int,
                    now: float) -> Optional[float]:
        """One copy's fate: ``None`` if the fault controller drops it, else
        its link delay.  Draws from the shared rng in the fixed
        ``should_drop`` / ``sample`` / ``extra_delay`` order."""
        fault = self.fault_controller
        rng = self.rng
        if fault is not None and fault.should_drop(message, receiver, now, rng):
            return None
        model = self.latency_model
        sender = message.sender
        delay = (model.sample(sender, receiver, rng)
                 + model.transfer_delay(sender, receiver, message.size_bytes))
        if fault is not None:
            delay += fault.extra_delay(message, receiver, now, rng)
        return delay

    def _arrival(self, message: Message, receiver: int, delay: float) -> float:
        """Reserve the sender's NIC lane, then the receiver's ingress lane."""
        size = message.size_bytes
        serialisation_done = self.endpoints[message.sender].reserve_nic(size)
        return self.endpoints[receiver].reserve_ingress(
            size, not_before=serialisation_done + delay)

    def _transmit(self, message: Message, receiver: int, delay: float) -> None:
        self.env.call_later(
            self._arrival(message, receiver, delay) - self.env.now,
            partial(self._deliver, message), receiver)

    def _transmit_copies(self, message: Message, receivers: list[int],
                         delays: list[float]) -> None:
        """One delivery train for all copies of the broadcast."""
        times = [self._arrival(message, receiver, delay)
                 for receiver, delay in zip(receivers, delays)]
        self.env.schedule_batch(times, receivers,
                                partial(self._deliver, message))

    def _per_copy_broadcast(self, sender: int, channel: str, kind: str,
                            payload: Any,
                            size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                            include_self: bool = False) -> list[int]:
        """Send the same payload to every other node (clique dissemination).

        One envelope, one copy per receiver, in receiver order, each drawing
        from the shared rng in the fixed ``should_drop`` / ``sample`` /
        ``extra_delay`` order.  Returns the ids of the receivers whose copy
        is in flight: crashed senders return ``[]``; dropped copies are
        excluded and, as in :meth:`send`, count as sent *and* dropped without
        reaching the backend.  With ``include_self`` the loopback copy sits
        at its receiver-order slot.
        """
        if not 0 <= sender < self.n_nodes:
            raise ValueError(f"invalid endpoint id sender={sender}")
        if self.endpoints[sender].crashed:
            return []
        env = self.env
        now = env.now
        message = Message(sender, channel, kind, payload, size_bytes, now)
        reached: list[int] = []
        remote: list[int] = []
        delays: list[float] = []
        for receiver in range(self.n_nodes):
            if receiver == sender:
                if include_self:
                    env.call_later(0.0, partial(self._deliver, message),
                                   receiver)
                    reached.append(receiver)
                continue
            delay = self._link_delay(message, receiver, now)
            if delay is None:
                self.stats.messages_dropped += 1
                continue
            remote.append(receiver)
            delays.append(delay)
            reached.append(receiver)
        if remote:
            self._transmit_copies(message, remote, delays)
        copies = self.n_nodes if include_self else self.n_nodes - 1
        if copies:
            self.stats.record_send(channel, kind, message.size_bytes, copies)
        return reached

    def broadcast(self, sender: int, channel: str, kind: str, payload: Any,
                  size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                  include_self: bool = False) -> list[int]:
        """:meth:`_per_copy_broadcast`, with a fan-out fast path.

        Without a fault controller, instead of ``n`` independent per-copy
        steps the fan-out builds the one envelope, reserves the sender's NIC
        lane by one precomputed increment per copy (all copies are the same
        size, and every endpoint runs the same machine spec, so ingress
        costs match too), samples all link latencies in one
        :meth:`~repro.net.latency.LatencyModel.sample_block` call, and hands
        the whole fan-out to the kernel as a single
        :meth:`~repro.sim.environment.Environment.schedule_batch` delivery
        train over the receiver ids — one queue entry per broadcast instead
        of one per copy, and nothing allocated per copy but its arrival
        time.  With a fault controller installed the shared per-copy loop
        runs, so the ``should_drop`` / ``sample`` / ``extra_delay``
        interleaving on the shared rng is unchanged; so it does on a
        one-node network, where there is no fan-out to batch.
        """
        if self.fault_controller is not None or self.n_nodes == 1:
            return self._per_copy_broadcast(sender, channel, kind, payload,
                                            size_bytes, include_self)
        if not 0 <= sender < self.n_nodes:
            raise ValueError(f"invalid endpoint id sender={sender}")
        source = self.endpoints[sender]
        if source.crashed:
            return []
        env = self.env
        now = env.now
        model = self.latency_model
        # Skip the per-copy transfer_delay call entirely for models that keep
        # the base class's zero-cost default (every link latency-bound only).
        transfer = None
        if type(model).transfer_delay is not LatencyModel.transfer_delay:
            transfer = model.transfer_delay
        n = self.n_nodes

        message = Message(sender, channel, kind, payload, size_bytes, now)
        wire_bytes = message.size_bytes
        lane = "bulk" if wire_bytes > BULK_MESSAGE_THRESHOLD else "ctrl"
        cost = source._transfer_cost(wire_bytes)
        tx_free = source._tx_free_at
        free_at = tx_free[lane]
        if free_at < now:
            free_at = now

        receivers = self._receivers[sender]
        delays = model.sample_block(sender, receivers, self.rng)
        rx_lanes = self._rx_lanes
        # Per-copy arrival floors in two C-level passes: the sender's NIC
        # frees one `cost` later per copy (a prefix sum), then each copy
        # adds its sampled link delay (and per-link transfer time on
        # bandwidth-capped WAN models).
        floors = list(accumulate(repeat(cost, n - 1), initial=free_at))
        del floors[0]
        tx_free[lane] = floors[-1]
        if transfer is None:
            floors = [f + d for f, d in zip(floors, delays)]
        else:
            floors = [f + d + transfer(sender, r, wire_bytes)
                      for f, d, r in zip(floors, delays, receivers)]
        # What is left per copy is the model itself: the receiver's ingress
        # lane is reserved, which fixes the arrival time.
        times: list[float] = []
        times_append = times.append
        for receiver, not_before in zip(receivers, floors):
            rx = rx_lanes[receiver]
            prior = rx[lane]
            if not_before < prior:
                not_before = prior
            received_at = not_before + cost
            rx[lane] = received_at
            times_append(received_at)
        deliver = partial(self._deliver, message)
        env.schedule_batch(times, receivers, deliver)
        if include_self:
            env.call_later(0.0, deliver, sender)
        source.bytes_sent += (n - 1) * wire_bytes
        self.stats.record_send(channel, kind, wire_bytes,
                               n if include_self else n - 1)
        # The self copy sits at its receiver-order slot in the result.
        return list(range(n)) if include_self else list(receivers)


def use_reference(monkeypatch) -> None:
    """Make ``run_cluster`` build the oracle network for the rest of a test."""
    monkeypatch.setattr("repro.core.cluster.Network", ReferenceNetwork)
