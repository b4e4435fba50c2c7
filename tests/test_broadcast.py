"""Tests of the reliable and atomic broadcast primitives."""

import random

import pytest

from repro.broadcast import AtomicBroadcast, ReliableBroadcast
from repro.broadcast.reliable import RB_ECHO, Relay
from repro.core.context import ProtocolContext
from repro.net.message import Record
from repro.sim import Environment
from tests.conftest import make_network


class Note(Record):
    """A payload to broadcast: a ``text`` at a fixed wire size."""

    __slots__ = ()
    FIELDS = ("text",)
    size_bytes = 96


def note(text):
    return Note((text,))


def wire_reliable_broadcast(env, network, f=1):
    """Build one RB endpoint per node and route traffic to it."""
    delivered = {i: [] for i in range(network.n_nodes)}
    endpoints = []
    for node_id in range(network.n_nodes):
        rb = ReliableBroadcast(ProtocolContext(env, network, node_id, "rb", ()),
                               f, lambda origin, tag, payload, nid=node_id:
                               delivered[nid].append((origin, tag, payload)))
        endpoints.append(rb)
        network.endpoint(node_id).router = rb.on_message
    return endpoints, delivered


def test_reliable_broadcast_delivers_to_all_correct_nodes():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_reliable_broadcast(env, network)
    endpoints[0].broadcast(tag="alert", payload=note("round 3"))
    env.run()
    for node_id in range(4):
        assert delivered[node_id] == [(0, "alert", note("round 3"))]


def test_reliable_broadcast_delivers_despite_crashed_sender_after_send():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_reliable_broadcast(env, network)
    endpoints[1].broadcast(tag="t", payload=note("x"))

    # Crash the origin shortly after it pushed its SEND messages: the echo
    # amplification must still deliver everywhere.
    def crash(_event):
        network.crash(1)

    env.timeout(0.002).add_callback(crash)
    env.run()
    for node_id in (0, 2, 3):
        assert delivered[node_id] == [(1, "t", note("x"))]


def test_reliable_broadcast_no_delivery_without_origin_send():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_reliable_broadcast(env, network)
    # A single forged ECHO from one node must not cause delivery anywhere.
    network.broadcast(2, "rb", RB_ECHO,
                      Relay.of(RB_ECHO, 0, "fake", note("evil")),
                      include_self=True)
    env.run()
    assert all(not msgs for msgs in delivered.values())


def test_reliable_broadcast_delivers_each_message_once():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_reliable_broadcast(env, network)
    endpoints[0].broadcast(tag="once", payload=note("once"))
    env.run()
    assert all(len(msgs) == 1 for msgs in delivered.values())


def wire_atomic_broadcast(env, network, f=1):
    delivered = {i: [] for i in range(network.n_nodes)}
    endpoints = []
    for node_id in range(network.n_nodes):
        ab = AtomicBroadcast(ProtocolContext(env, network, node_id, "ab", ()),
                             f, lambda origin, payload, nid=node_id:
                             delivered[nid].append((origin, payload)))
        endpoints.append(ab)
        network.endpoint(node_id).router = ab.on_message
    return endpoints, delivered


def test_atomic_broadcast_total_order():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_atomic_broadcast(env, network)
    for node_id in range(4):
        endpoints[node_id].broadcast(note(f"from {node_id}"))
    env.run(until=2.0)
    sequences = [delivered[node_id] for node_id in range(4)]
    assert all(len(seq) == 4 for seq in sequences)
    # Atomic-Order: every correct node delivers the same payloads in the same order.
    assert all(seq == sequences[0] for seq in sequences)


def test_atomic_broadcast_delivers_own_request():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_atomic_broadcast(env, network)
    endpoints[2].broadcast(note("hello"))
    env.run(until=2.0)
    assert (2, note("hello")) in delivered[2]


def test_atomic_broadcast_survives_leader_crash(monkeypatch):
    monkeypatch.setattr(AtomicBroadcast, "REQUEST_TIMEOUT", 0.1)
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_atomic_broadcast(env, network)
    network.crash(0)  # node 0 is the initial leader (view 0)
    endpoints[1].broadcast(note("post-crash"))
    env.run(until=5.0)
    for node_id in (1, 2, 3):
        assert (1, note("post-crash")) in delivered[node_id]
        assert endpoints[node_id].view > 0  # a view change happened


def test_atomic_broadcast_deduplicates_requests():
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_atomic_broadcast(env, network)
    endpoints[3].broadcast(note("only-once"))
    env.run(until=2.0)
    assert delivered[0].count((3, note("only-once"))) == 1


def test_atomic_broadcast_rearms_view_change_at_a_fixed_period():
    """An undelivered request votes for a view change after REQUEST_TIMEOUT,
    then every 2 x REQUEST_TIMEOUT — a fixed period, not an exponential
    backoff (pinned: changing it moves every fault row)."""
    env = Environment()
    network = make_network(env, 4)
    endpoints, delivered = wire_atomic_broadcast(env, network)
    for crashed in (0, 2, 3):  # the leader and two peers: no quorum
        network.crash(crashed)
    votes = []
    send = network.broadcast

    def spy(sender, channel, kind, *args, **kwargs):
        if kind == "AB_VIEWCHANGE":
            votes.append(env.now)
        return send(sender, channel, kind, *args, **kwargs)

    network.broadcast = spy
    endpoints[1].broadcast(note("stuck"))
    timeout = AtomicBroadcast.REQUEST_TIMEOUT
    env.run(until=8 * timeout)
    assert not delivered[1]
    # The origin watches its request twice (on broadcast and on receiving
    # its own AB_REQUEST); both watchers keep the same period.
    assert sorted(set(votes)) == pytest.approx(
        [timeout, 3 * timeout, 5 * timeout, 7 * timeout])
