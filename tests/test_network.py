"""Tests of the simulated network substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import GeoDistributedLatency, SingleDatacenterLatency
from repro.net.latency import WanTopologyLatency
from repro.net.network import BULK_MESSAGE_THRESHOLD, Network
from repro.scenarios.faultplan import (
    FaultPhase,
    FaultSchedule,
    loss,
    partition,
    slow,
)
from repro.sim import Environment
from tests.conftest import make_network
from tests.reference_network import NullController, ReferenceNetwork


def collect_inbox(network, node_id):
    return network.endpoint(node_id).mailbox


def record_arrivals(env, network, node_id):
    """Route ``node_id``'s unbound traffic into ``{kind: (message, arrival
    time)}`` — an envelope carries no delivery stamp, the handler reads the
    clock."""
    arrivals = {}

    def handler(message):
        arrivals[message.kind] = (message, env.now)

    network.endpoint(node_id).router = handler
    return arrivals


def latency_of(arrival):
    message, delivered_at = arrival
    return delivered_at - message.sent_at


def test_message_delivered_with_latency(env, network):
    arrivals = record_arrivals(env, network, 1)
    network.send(0, 1, "test", "PING", {"x": 1}, size_bytes=128)
    env.run()
    assert list(arrivals) == ["PING"]
    assert latency_of(arrivals["PING"]) > 0


def test_loopback_is_immediate(env, network):
    arrivals = record_arrivals(env, network, 2)
    network.send(2, 2, "test", "SELF", None)
    env.run()
    assert list(arrivals) == ["SELF"]
    assert latency_of(arrivals["SELF"]) == 0


def test_broadcast_reaches_everyone_but_sender(env, network):
    network.broadcast(0, "test", "HELLO", None)
    env.run()
    assert len(collect_inbox(network, 0)) == 0
    for node in (1, 2, 3):
        assert len(collect_inbox(network, node)) == 1


def test_broadcast_include_self(env, network):
    network.broadcast(1, "test", "HELLO", None, include_self=True)
    env.run()
    assert len(collect_inbox(network, 1)) == 1


def test_crashed_node_neither_sends_nor_receives(env, network):
    network.crash(3)
    network.send(3, 0, "test", "FROM_CRASHED", None)
    network.send(0, 3, "test", "TO_CRASHED", None)
    env.run()
    assert collect_inbox(network, 0) == []
    assert collect_inbox(network, 3) == []
    assert network.stats.messages_dropped >= 1


def test_large_messages_slower_than_small(env, network):
    arrivals = record_arrivals(env, network, 1)
    network.send(0, 1, "test", "SMALL", None, size_bytes=128)
    network.send(2, 1, "test", "BIG", None, size_bytes=5 * 1024 * 1024)
    env.run()
    assert latency_of(arrivals["BIG"]) > latency_of(arrivals["SMALL"])


def test_bulk_lane_does_not_block_control_messages(env, network):
    # Queue a huge body first, then a tiny control message to the same peer.
    arrivals = record_arrivals(env, network, 1)
    network.send(0, 1, "test", "BODY", None, size_bytes=20 * 1024 * 1024)
    network.send(0, 1, "test", "VOTE", None, size_bytes=128)
    env.run()
    assert arrivals["VOTE"][1] < arrivals["BODY"][1]


def test_nic_serialisation_accumulates_backlog(env, network):
    endpoint = network.endpoint(0)
    for _ in range(5):
        network.send(0, 1, "test", "BODY", None, size_bytes=BULK_MESSAGE_THRESHOLD * 100)
    assert endpoint.nic_backlog > 0
    env.run()
    assert endpoint.nic_backlog == 0


def test_router_receives_messages(env, network):
    received = []
    network.endpoint(1).router = received.append
    network.send(0, 1, "test", "PING", None)
    env.run()
    assert len(received) == 1
    assert network.endpoint(1).mailbox == []


def test_bound_kind_bypasses_the_catch_all(env, network):
    """A ``(channel, kind)`` binding takes its messages; the ``router``
    catch-all sees only what no binding matches."""
    bound, unbound = [], []
    network.bind(1, "test", {"PING": bound.append})
    network.endpoint(1).router = unbound.append
    network.send(0, 1, "test", "PING", None)
    network.send(0, 1, "test", "PONG", None)
    network.send(0, 1, "other", "PING", None)
    env.run()
    assert [(m.channel, m.kind) for m in bound] == [("test", "PING")]
    assert [(m.channel, m.kind) for m in unbound] == [("test", "PONG"),
                                                      ("other", "PING")]


def test_invalid_endpoints_rejected(env, network):
    with pytest.raises(ValueError):
        network.send(0, 99, "test", "PING", None)


def test_network_stats_per_kind(env, network):
    network.broadcast(0, "chan", "A", None)
    network.send(1, 2, "chan", "B", None)
    env.run()
    assert network.stats.messages_of_kind("A") == 3
    assert network.stats.messages_of_kind("B", channel="chan") == 1
    assert network.stats.messages_of_kind("B", channel="other") == 0


# ------------------------------------------------------- drop/recover contract
def test_send_returns_message_on_success(env, network):
    arrivals = record_arrivals(env, network, 1)
    message = network.send(0, 1, "test", "OK", None)
    assert message is not None
    env.run()
    # What send returned is the object the receiver was handed.
    assert arrivals["OK"][0] is message


def test_send_returns_none_when_source_crashed(env, network):
    network.crash(0)
    assert network.send(0, 1, "test", "X", None) is None


def test_send_returns_none_on_fault_drop(env, network):
    network.fault_controller = FaultSchedule((loss(1.0),))
    assert network.send(0, 1, "test", "X", None) is None
    assert network.stats.messages_dropped == 1
    assert network.stats.messages_sent == 1


def test_dropped_message_consumes_no_egress(env, network):
    network.fault_controller = FaultSchedule((loss(1.0),))
    before = dict(network.endpoint(0)._tx_free_at)
    assert network.send(0, 1, "test", "X", None,
                        size_bytes=BULK_MESSAGE_THRESHOLD * 10) is None
    assert network.endpoint(0)._tx_free_at == before
    assert network.endpoint(0).bytes_sent == 0


def test_broadcast_excludes_dropped_messages(env, network):
    network.fault_controller = FaultSchedule((loss(1.0, receivers={2}),))
    assert network.broadcast(0, "test", "HELLO", None) == [1, 3]
    assert network.stats.messages_dropped == 1
    env.run()
    assert collect_inbox(network, 2) == []
    assert len(collect_inbox(network, 1)) == 1


def test_broadcast_returns_receiver_ids_the_caller_may_keep(env, network):
    """A fan-out reads each sender's receiver sequence from a
    per-network cache; what it returns is the caller's own list."""
    reached = network.broadcast(1, "test", "HELLO", None)
    assert reached == [0, 2, 3]
    reached.clear()
    assert network.broadcast(1, "test", "HELLO", None) == [0, 2, 3]
    assert network.broadcast(1, "test", "HELLO", None,
                             include_self=True) == [0, 1, 2, 3]
    env.run()
    assert [len(collect_inbox(network, node)) for node in range(4)] == [3, 1, 3, 3]


def test_broadcast_matches_send_loop_semantics(env):
    """A fan-out times deliveries like n sequential sends.  Both reserve
    through one step, so the lanes they leave are exactly equal; a unicast's
    ``call_later(t - now)`` may land one ulp from ``t``, hence ``approx`` on
    arrival times."""
    size = BULK_MESSAGE_THRESHOLD * 4
    env_b, env_s = Environment(), Environment()
    fanout = make_network(env_b, 5)
    serial = make_network(env_s, 5)
    got_b = [record_arrivals(env_b, fanout, node) for node in range(1, 5)]
    got_s = [record_arrivals(env_s, serial, node) for node in range(1, 5)]

    def lanes(network):
        return [(e._tx_free_at, e._rx_free_at) for e in network.endpoints]

    fanout.broadcast(0, "t", "BODY", None, size_bytes=size)
    for receiver in range(1, 5):
        serial.send(0, receiver, "t", "BODY", None, size_bytes=size)
    assert lanes(fanout) == lanes(serial)
    env_b.run()
    env_s.run()
    for batched, single in zip(got_b, got_s):
        assert list(batched) == list(single) == ["BODY"]
        assert batched["BODY"][1] == pytest.approx(single["BODY"][1])
    assert fanout.endpoint(0).bytes_sent == serial.endpoint(0).bytes_sent
    assert fanout.stats.bytes_sent == serial.stats.bytes_sent


def test_recover_resets_stale_lane_backlog(env, network):
    # Pile up egress and ingress backlog on node 0, then crash it.
    for _ in range(5):
        network.send(0, 1, "t", "OUT", None, size_bytes=BULK_MESSAGE_THRESHOLD * 100)
        network.send(1, 0, "t", "IN", None, size_bytes=BULK_MESSAGE_THRESHOLD * 100)
    endpoint = network.endpoint(0)
    assert endpoint.nic_backlog > 0
    assert endpoint._rx_free_at["bulk"] > env.now
    network.crash(0)
    env.run(until=0.001)  # advance time; the pre-crash backlog would linger
    network.recover(0)
    assert endpoint.nic_backlog == 0
    assert endpoint._rx_free_at["bulk"] <= env.now
    # A recovered node sends fresh traffic with no phantom queueing delay.
    message = network.send(0, 1, "t", "FRESH", None)
    assert message is not None


# ------------------------------------------------------------ latency models
def test_single_datacenter_latency_is_submillisecond_scale():
    model = SingleDatacenterLatency()
    rng = random.Random(0)
    samples = [model.sample(0, 1, rng) for _ in range(200)]
    assert all(s >= model.base for s in samples)
    assert sum(samples) / len(samples) < 2e-3


def test_geo_latency_much_larger_than_local():
    model = GeoDistributedLatency()
    rng = random.Random(0)
    # Nodes 0 and 2 are Tokyo and Frankfurt: ~100ms one way.
    assert model._rows[0][2] > 0.05
    assert model.sample(0, 2, rng) > 0.05
    # A node is local to itself-region peer (wrap-around for node 10).
    assert model._rows[0][10] == pytest.approx(model.local_one_way)


def test_geo_latency_symmetry():
    model = GeoDistributedLatency()
    assert model._rows[1][5] == model._rows[5][1]


# ------------------------------------------------------------ fault injection
def test_message_loss_fault_drops_messages():
    env = Environment()
    network = make_network(env, 4)
    network.fault_controller = FaultSchedule((loss(1.0, senders={0}),))
    network.send(0, 1, "t", "X", None)
    network.send(2, 1, "t", "Y", None)
    env.run()
    kinds = [m.kind for m in network.endpoint(1).mailbox]
    assert kinds == ["Y"]


def test_partition_fault_blocks_cross_group_traffic():
    env = Environment()
    network = make_network(env, 4)
    network.fault_controller = FaultSchedule((
        partition([{0, 1}, {2, 3}], start=0.0, end=float("inf")),))
    network.send(0, 1, "t", "SAME", None)
    network.send(0, 2, "t", "CROSS", None)
    env.run()
    assert [m.kind for m in network.endpoint(1).mailbox] == ["SAME"]
    assert network.endpoint(2).mailbox == []


def test_link_delay_fault_adds_latency():
    env = Environment()
    network = make_network(env, 4)
    network.fault_controller = FaultSchedule((slow(0.5, senders={0}),))
    arrivals = record_arrivals(env, network, 1)
    network.send(0, 1, "t", "SLOW", None)
    env.run()
    assert latency_of(arrivals["SLOW"]) > 0.5


def test_partition_fault_time_window():
    env = Environment()
    network = make_network(env, 4)
    network.fault_controller = FaultSchedule((
        partition([{0}, {1, 2, 3}], start=10.0, end=float("inf")),))
    network.send(0, 1, "t", "BEFORE", None)
    env.run()
    assert [m.kind for m in network.endpoint(1).mailbox] == ["BEFORE"]


def test_abs_gauss_block_matches_stdlib_draw_for_draw():
    """The unrolled polar sampler must consume the rng stream bit-identically.

    Broadcast fan-outs draw jitter through _abs_gauss_block while unicast
    sends draw through rng.gauss; any divergence (values, rng state, or the
    cached gauss_next carry) would silently change every simulated schedule.
    """
    import random

    from repro.net.latency import _abs_gauss_block

    for seed in range(4):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for block in (0, 1, 2, 3, 8, 0, 5, 1):
            got = _abs_gauss_block(ours, block)
            want = [abs(stdlib.gauss(0.0, 1.0)) for _ in range(block)]
            assert got == want
            assert ours.getstate() == stdlib.getstate()
            assert ours.gauss_next == stdlib.gauss_next
            # Interleave a direct draw so the carry path is exercised too.
            assert ours.gauss(0.0, 1.0) == stdlib.gauss(0.0, 1.0)


def test_sample_block_matches_sequential_samples():
    """Every latency model's block sampler equals per-copy sample() calls."""
    import random

    from repro.net.latency import (
        GeoDistributedLatency,
        SingleDatacenterLatency,
        WanTopologyLatency,
    )

    models = [
        SingleDatacenterLatency(),
        GeoDistributedLatency(),
        WanTopologyLatency(["us", "us", "eu", "eu", "ap", "ap", "ap"]),
    ]
    receivers = [1, 2, 3, 5, 6]
    for model in models:
        a, b = random.Random(11), random.Random(11)
        block = model.sample_block(0, receivers, a)
        seq = [model.sample(0, receiver, b) for receiver in receivers]
        assert block == seq
        assert a.getstate() == b.getstate()


# ------------------------------------------- one way out: the former two paths
_NODE = st.integers(0, 11)
_SIZE = st.sampled_from([0, 600, BULK_MESSAGE_THRESHOLD,
                         BULK_MESSAGE_THRESHOLD + 1, 300_000])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("send"), _NODE, _NODE, _SIZE),
    st.tuples(st.just("broadcast"), _NODE, _SIZE, st.booleans()),
    st.tuples(st.just("crash"), _NODE),
    st.tuples(st.just("recover"), _NODE),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 2e-5, 1e-3, 0.03])),
), max_size=40)
_WINDOW = st.sampled_from([(0.0, float("inf")), (0.0, 0.001), (0.001, 0.04),
                           (0.03, float("inf"))])
_SOME = st.one_of(st.none(), st.lists(_NODE, min_size=1, max_size=4))


@st.composite
def _link_phase(draw):
    start, end = draw(_WINDOW)
    kind = draw(st.sampled_from(["loss", "partition", "one-way", "slow"]))
    if kind == "partition":
        split = draw(st.integers(1, 11))
        return partition([range(split), range(split, 12)], start, end)
    if kind == "one-way":
        # Selective omission's shape: one node's copies to its victims (low
        # ids, so that they exist on the small networks drawn too).
        node = draw(st.integers(0, 3))
        victims = tuple(draw(st.lists(st.integers(0, 3).filter(
            lambda v: v != node), min_size=1, max_size=3, unique=True)))
        return FaultPhase(kind="partition", groups=((node,), victims),
                          senders=(node,), receivers=victims, at=start,
                          until=end)
    if kind == "loss":
        return loss(draw(st.sampled_from([0.25, 1.0])), start, end,
                    draw(_SOME), draw(_SOME))
    return slow(draw(st.sampled_from([1e-4, 0.02])), start, end,
                draw(_SOME), draw(_SOME))


def _latency_model(name, n):
    if name == "lan":
        return SingleDatacenterLatency()
    if name == "geo":
        return GeoDistributedLatency()
    # Bandwidth-capped cross-region links, as in scenario:geo-5region.
    regions = ("virginia", "frankfurt", "singapore")
    return WanTopologyLatency(
        [regions[node % 3] for node in range(n)],
        one_way_s={frozenset(("virginia", "frankfurt")): 0.044},
        bandwidth_bps={frozenset(("virginia", "singapore")): 250 * 125_000.0},
        default_bandwidth_bps=150 * 125_000.0)


def _played(network_class, n, model, controller, seed, ops):
    """Play ``ops`` on a fresh network; everything a caller can observe."""
    env = Environment()
    network = network_class(env, n, latency_model=_latency_model(model, n),
                            rng=random.Random(seed),
                            fault_controller=controller)
    delivered = {node: [] for node in range(n)}
    for node in range(n):
        network.endpoint(node).router = (
            lambda message, log=delivered[node]:
            log.append((message.sender, message.kind, env.now)))
    returned = []
    for index, op in enumerate(ops):
        name, args = op[0], op[1:]
        if name == "send":
            sender, receiver, size = args
            returned.append(network.send(sender % n, receiver % n, "t",
                                         f"s{index}", {"i": index}, size))
        elif name == "broadcast":
            sender, size, include_self = args
            returned.append(network.broadcast(sender % n, "t", f"b{index}",
                                              None, size, include_self))
        elif name == "crash":
            network.crash(args[0] % n)
        elif name == "recover":
            network.recover(args[0] % n)
        else:
            env.run(until=env.now + args[0])
    env.run()
    return {"returned": returned, "stats": network.stats,
            "endpoints": [(e.bytes_sent, e.bytes_received, e._tx_free_at,
                           e._rx_free_at, e.crashed)
                          for e in network.endpoints],
            "rng": network.rng.getstate(), "delivered": delivered,
            "sequence": env._sequence}  # noqa: SLF001


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), model=st.sampled_from(["lan", "geo", "wan"]),
       phases=st.one_of(st.none(), st.lists(_link_phase(), min_size=1,
                                            max_size=3)),
       seed=st.integers(0, 2 ** 16), ops=_OPS)
def test_one_send_path_matches_the_two_it_replaced(n, model, phases, seed,
                                                   ops):
    """Differential against ``tests/reference_network.py``: with one draw
    step and one reservation step for every send shape, every return value,
    ``stats``, per-endpoint bytes and lane state, ``rng.getstate()`` and each
    receiver's ``(sender, kind, time)`` deliveries are ``==`` — fault-free
    (the oracle's fan-out fast path) and under loss, partition and slow
    windows, selective omission's one-way partitions among them (its
    per-copy path, asking the schedule's per-copy walk where the shipped
    network asks once per send).  On bandwidth-capped links the oracle's
    fast path added ``transfer_delay`` in another order, so there the
    expected values are its per-copy path's, under a null controller."""
    schedule = None if phases is None else FaultSchedule(tuple(phases))
    oracle_controller = schedule
    if schedule is None and model == "wan":
        oracle_controller = NullController()
    got = _played(Network, n, model, schedule, seed, ops)
    want = _played(ReferenceNetwork, n, model, oracle_controller, seed, ops)
    assert got == want


def test_a_capped_fan_out_adds_the_transfer_delay_to_the_link_delay():
    """What the differential's null controller stands for: on a capped link
    a fan-out copy's floor is ``NIC-free time + (sample + transfer_delay)``,
    as a unicast's always was, not the former fast path's ``(NIC-free time
    + sample) + transfer_delay``."""
    ops = [("broadcast", node % 9, 300_000, False) for node in range(60)]
    got = _played(Network, 9, "wan", None, 5, ops)
    per_copy = _played(ReferenceNetwork, 9, "wan", NullController(), 5, ops)
    fast_path = _played(ReferenceNetwork, 9, "wan", None, 5, ops)
    assert got == per_copy
    assert got["delivered"] != fast_path["delivered"]
