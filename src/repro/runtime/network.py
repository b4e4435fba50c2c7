"""Real TCP network: :class:`~repro.net.network.BaseNetwork` over sockets.

Same contract as the simulated :class:`~repro.net.network.Network` — the
send/broadcast return contracts, the one fault question per send or
broadcast, stats accounting, crash state and final delivery step are
inherited, one statement for both backends — but a message physically
crosses a loopback TCP connection between two asyncio tasks (see
:mod:`repro.runtime.transport`) instead of riding the simulator's queue.

What stays modeled and what becomes real:

* **Propagation latency** stays modeled.  Loopback delivers in microseconds;
  to keep WAN scenarios meaningful the sender samples the latency model (plus
  the delay a copy's fault ``fate`` adds) exactly as the simulator does and
  ships the sampled delay inside the frame; the receiver holds the message
  until ``sent_at + delay`` before handing it to the endpoint.  Real socket
  transit time is absorbed into that hold (or adds to it when the wire is
  slower than the model — that difference is the calibration gap).
* **NIC serialisation** becomes real.  There is no reserve-based occupancy
  model; backpressure comes from actual socket buffers.  ``nic_backlog`` and
  ``bulk_egress_completion`` — the two occupancy views FireLedger's flow
  control reads — are derived from the transport's queued outbound bytes at
  the machine spec's egress bandwidth.
* **CPU cost** becomes real twice over: protocols still charge their modeled
  crypto costs through ``endpoint.cpu.hold(...)`` (now a wall-clock timer),
  and the Python work of running the protocol occupies the loop for however
  long it actually takes.

This module only moves bytes: it frames a message with its sampled delay
(pickling a broadcast's payload once), queues it on the sender's link, and on
arrival holds it until the delay is up.  Copies bound for a crashed receiver
count as dropped at the transport.  ``crash`` closes the node's sockets and
discards queued frames; ``recover`` rebinds the same port with an empty
backlog.

Every receiver unpickles its own payload — dicts, batches, headers and
signatures are never shared, so each node re-derives their memoised roots
and digests from what it received.  Transactions are the exception, as on
the simulator, where every node holds the one object a client built: all
nodes of a cluster run in one process, so the network keeps a weak
digest -> :class:`~repro.ledger.transaction.Transaction` table of what it
framed, and a received transaction whose ten fields match (value and type)
the framed one resolves to that object.  It is frozen, so sharing it lets no
node alias mutable state; a copy that differs in any field — a Byzantine
forgery of a known digest — stays a private copy.  The frames are the bytes
``pickle.dumps`` writes, and plain :mod:`pickle` elsewhere still rebuilds
fresh copies.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import weakref
from functools import partial
from typing import Optional, Sequence

from repro.ledger.transaction import (
    Transaction,
    _field_values,
    _restore_transaction,
)
from repro.net.message import Message
from repro.net.network import BaseEndpoint, BaseNetwork
from repro.runtime.environment import RealtimeEnvironment
from repro.runtime.transport import NodeTransport

_PICKLE = pickle.HIGHEST_PROTOCOL
#: Where the digest sits among the fields a transaction is restored from.
_DIGEST = Transaction.__slots__.index("payload_digest")


class _TransactionTable:
    """One network's framed transactions, by digest, held weakly: an entry
    lives exactly as long as some node still holds its transaction."""

    __slots__ = ("_kept",)

    def __init__(self) -> None:
        self._kept: weakref.WeakValueDictionary[str, Transaction] = (
            weakref.WeakValueDictionary())

    def reduce(self, transaction: Transaction):
        """A pickler's ``dispatch_table`` entry: register ``transaction``,
        then reduce it exactly as :meth:`Transaction.__reduce__` does."""
        self._kept[transaction.payload_digest] = transaction
        return _restore_transaction, _field_values(transaction)

    def restore(self, *fields) -> Transaction:
        """An unpickler's ``_restore_transaction``: the registered object when
        every field matches it in value and type, else a fresh copy."""
        kept = self._kept.get(fields[_DIGEST])
        if kept is not None:
            kept_fields = _field_values(kept)
            if (kept_fields == fields
                    and tuple(map(type, kept_fields)) == tuple(map(type, fields))):
                return kept
        return _restore_transaction(*fields)


class _PayloadUnpickler(pickle.Unpickler):
    """Unpickles one payload, rebuilding transactions through ``restore``."""

    def __init__(self, data: bytes, restore) -> None:
        super().__init__(io.BytesIO(data))
        self._restore = restore

    def find_class(self, module: str, name: str):
        found = super().find_class(module, name)
        return self._restore if found is _restore_transaction else found


class RealtimeEndpoint(BaseEndpoint):
    """Per-node attachment point backed by a TCP transport.

    The NIC occupancy views are computed from real queued socket traffic
    instead of the simulator's reserved lane time.  ``transport`` is the
    node's :class:`NodeTransport`, attached by :class:`RealtimeNetwork` as
    it builds its endpoints.
    """

    __slots__ = ("transport",)

    def reset_lanes(self) -> None:
        """Discard queued egress: the recover contract's empty-NIC guarantee."""
        self.transport.clear_backlog()

    @property
    def nic_backlog(self) -> float:
        """Seconds of queued egress at the machine spec's NIC bandwidth."""
        return self.transport.queued_bytes / self.machine.egress_bandwidth

    @property
    def bulk_egress_completion(self) -> float:
        """Estimated time everything currently queued will have been sent."""
        return self.env.now + self.nic_backlog


class RealtimeNetwork(BaseNetwork):
    """Fully connected loopback-TCP network between ``n_nodes`` endpoints."""

    endpoint_class = RealtimeEndpoint

    def __init__(self, env: RealtimeEnvironment, n_nodes: int,
                 **options) -> None:
        super().__init__(env, n_nodes, **options)
        self.transports = [NodeTransport(self, node_id)
                           for node_id in range(n_nodes)]
        for endpoint, transport in zip(self.endpoints, self.transports):
            endpoint.transport = transport
        self._ports: list[Optional[int]] = [None] * n_nodes
        self._transactions = _TransactionTable()
        #: The payload pickler's reducers: ``pickle``'s own, and the table's
        #: for transactions.
        self._dispatch_table = {**copyreg.dispatch_table,
                                Transaction: self._transactions.reduce}
        env.add_startup_hook(self._start)
        env.add_shutdown_hook(self._stop)

    def port_of(self, node_id: int) -> Optional[int]:
        """The TCP port ``node_id`` listens on, or ``None`` while down."""
        return self._ports[node_id]

    # ------------------------------------------------------------ crash hooks
    def _on_crash(self, node_id: int) -> None:
        """Close the node's sockets and drop everything queued for it."""
        dropped = self.transports[node_id].clear_backlog()
        for transport in self.transports:
            if transport.node_id == node_id:
                continue
            link = transport.links.get(node_id)
            if link is not None:
                dropped += link.clear()
        self.stats.messages_dropped += dropped
        self._spawn(self.transports[node_id].stop())

    def _on_recover(self, node_id: int) -> None:
        """Rebind the same port (the endpoint's backlog is already empty)."""
        self._spawn(self.transports[node_id].start())

    # -------------------------------------------------------------- transport
    def _pickle_payload(self, payload) -> bytes:
        """``pickle.dumps(payload, HIGHEST_PROTOCOL)``, registering every
        transaction it frames in the network's table."""
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, _PICKLE)
        pickler.dispatch_table = self._dispatch_table
        pickler.dump(payload)
        return buffer.getvalue()

    def _unpickle_payload(self, payload_bytes: bytes):
        """Rebuild a received payload, its transactions through the table."""
        return _PayloadUnpickler(payload_bytes,
                                 self._transactions.restore).load()

    def _transmit_copies(self, message: Message, receivers: Sequence[int],
                         delays: Sequence[float]) -> None:
        """Pickle the shared payload once; each receiver unpickles its own
        payload (only its transactions resolve to shared objects), so —
        unlike the simulator's shared-envelope delivery — no two nodes can
        alias mutable state."""
        payload_bytes = self._pickle_payload(message.payload)
        for receiver, delay in zip(receivers, delays):
            self._transmit(message, receiver, delay, payload_bytes)

    def _transmit(self, message: Message, receiver: int, delay: float,
                  payload_bytes: Optional[bytes] = None) -> None:
        """Frame ``message`` and queue it on the sender's link to the peer."""
        if self.env.stopping:
            return  # the run is over: nothing new goes on the wire
        if self.endpoints[receiver].crashed:
            # In-flight copy to a crashed node: dropped, as in the simulator.
            self.stats.messages_dropped += 1
            return
        if payload_bytes is None:
            payload_bytes = self._pickle_payload(message.payload)
        frame = pickle.dumps(
            (message.sender, receiver, message.channel, message.kind,
             message.size_bytes, message.sent_at, delay, payload_bytes),
            _PICKLE)
        self.endpoints[message.sender].bytes_sent += message.size_bytes
        self.transports[message.sender].link_to(receiver).enqueue(frame)

    def _on_frame(self, data: bytes) -> None:
        """Reassemble an arriving frame; deliver once its modeled delay is up."""
        (sender, receiver, channel, kind, size_bytes, sent_at, delay,
         payload_bytes) = pickle.loads(data)
        endpoint = self.endpoints[receiver]
        if endpoint.crashed:
            self.stats.messages_dropped += 1
            return
        message = Message(sender, channel, kind,
                          self._unpickle_payload(payload_bytes),
                          size_bytes, sent_at)
        remaining = (sent_at + delay) - self.env.now
        self.env.call_later(max(0.0, remaining),
                            partial(self._deliver, message), receiver)

    def _count_transport_drop(self) -> None:
        """A frame died on the wire (peer crash or wedged connection)."""
        self.stats.messages_dropped += 1

    # ------------------------------------------------------------------ hooks
    def _spawn(self, coro) -> None:
        """Run a transport lifecycle coroutine if the loop is live."""
        loop = self.env.loop
        if loop.is_running():
            loop.create_task(coro)
        else:
            # Before/after the run there is no live socket state to mutate;
            # the flag flips above are the whole effect.
            coro.close()

    async def _start(self) -> None:
        for endpoint, transport in zip(self.endpoints, self.transports):
            if not endpoint.crashed:
                await transport.start()

    async def _stop(self) -> None:
        for transport in self.transports:
            await transport.stop()
