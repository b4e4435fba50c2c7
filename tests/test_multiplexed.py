"""Tests of multiplexed consensus lanes (`protocols/multiplexed.py`).

Covers the one way in (`config.lanes`; lanes are not part of a protocol's
name), the deterministic sender->lane assignment, the cluster-global pool budget split,
the watermark round-robin merge (stall/resume semantics and, via hypothesis,
independence from cross-lane arrival interleaving), end-to-end determinism
of the merged state root, and state agreement under crash/recover faults.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FireLedgerConfig, protocols, run_cluster
from repro.core.flo import FLONode
from repro.crypto.keys import KeyStore
from repro.ledger.delivery import Delivery, DeliveryStream
from repro.net.network import Network
from repro.scenarios.spec import ScenarioSpec
from repro.ledger.transaction import Transaction
from repro.protocols.multiplexed import (
    MultiplexedNode,
    build_lanes,
    lane_configs,
)
from repro.sim import Environment
from tests.reference_txpath import lane_of as reference_lane_of

LANE_CONFIG = dict(n_nodes=4, workers=1, batch_size=10, tx_size=512,
                   execute_transactions=True)


class _StubLane:
    """The minimal inner-node surface MultiplexedNode consumes."""

    def __init__(self):
        self.delivery_stream = DeliveryStream()
        self.submitted = []

    def submit_transaction(self, transaction):
        self.submitted.append(transaction)
        return True

    def emit(self, tag, tx_count=1):
        self.delivery_stream.deliver(Delivery(tag=tag, tx_count=tx_count))


def _merged_node(n_lanes):
    lanes = [_StubLane() for _ in range(n_lanes)]
    node = MultiplexedNode(0, lanes)
    merged = []
    node.delivery_stream.subscribe(lambda d: merged.append(d))
    return node, lanes, merged


# ------------------------------------------------------------ registry name
@pytest.mark.parametrize("bad", [
    "multiplexed(fireledger, lanes=4)",   # lanes are config.lanes, not a name
    "multiplexed(tendermint, lanes=2)",
    "multiplexed(fireledger)",
    "multiplexed(fireledger, lanes=x)",
    "tendermint",
])
def test_multiplexed_bad_spellings_rejected(bad):
    """An unknown protocol name — the retired dynamic spelling included — is
    rejected by the registry, by ``ScenarioSpec`` and by ``run_cluster``."""
    with pytest.raises(KeyError):
        protocols.get(bad)
    with pytest.raises(ValueError, match="unknown protocol"):
        ScenarioSpec(name="x", protocol=bad)
    with pytest.raises(KeyError):
        run_cluster(FireLedgerConfig(**LANE_CONFIG), protocol=bad,
                    duration=0.2, warmup=0.05)


def test_lanes_are_the_config_field_and_the_label_names_them():
    result = run_cluster(FireLedgerConfig(**LANE_CONFIG, lanes=2),
                         duration=0.2, warmup=0.05, seed=1)
    assert result.protocol == "multiplexed(fireledger, lanes=2)"
    assert all(isinstance(node, MultiplexedNode) and len(node.lanes) == 2
               for node in result.nodes)


def test_multiplexed_does_not_nest():
    """A lane's config says one lane, so a lane build's inner nodes are the
    protocol's own nodes, never multiplexed again."""
    config = FireLedgerConfig(**LANE_CONFIG, lanes=2)
    env = Environment()
    nodes = build_lanes(protocols.get("fireledger"), env, Network(env, 4),
                        KeyStore(4), config, random.Random(1))
    assert [node.node_id for node in nodes] == [0, 1, 2, 3]
    for node in nodes:
        assert [type(inner) for inner in node.lanes] == [FLONode, FLONode]
        assert all(inner.config.lanes == 1 for inner in node.lanes)


# ------------------------------------------------------------- lane routing
def lane_of(sender, client_id, lanes):
    """The lane a ``MultiplexedNode`` of ``lanes`` lanes routes a write of
    ``sender`` / ``client_id`` to, checked against the formula it inlines
    (``tests/reference_txpath.py::lane_of``)."""
    node = MultiplexedNode(0, [_StubLane() for _ in range(lanes)])
    transaction = Transaction(0, client_id, 64, sender=sender,
                              recipient=None if sender is None else 0)
    assert node.submit_transaction(transaction)
    routed, = [lane for lane, inner in enumerate(node.lanes)
               if inner.submitted == [transaction]]
    assert routed == reference_lane_of(sender, client_id, lanes)
    return routed


def test_lane_of_is_deterministic_and_sender_local():
    for lanes in (1, 2, 4, 7):
        for sender in range(50):
            lane = lane_of(sender, client_id=99, lanes=lanes)
            assert 0 <= lane < lanes
            # Pure function of the sender: nonce streams stay lane-local.
            assert lane == lane_of(sender, client_id=0, lanes=lanes)
    # Senderless payloads key on the client instead.
    assert lane_of(None, client_id=5, lanes=4) == lane_of(None, 5, 4)


def test_lane_of_spreads_senders():
    lanes = 4
    counts = [0] * lanes
    for sender in range(200):
        counts[lane_of(sender, 0, lanes)] += 1
    assert min(counts) > 0  # no lane starves under sequential sender ids


# -------------------------------------------------------- pool budget split
def test_pool_budget_splits_across_lanes():
    config = FireLedgerConfig(n_nodes=4, pool_max_pending=10, lanes=4)
    shares = [c.pool_max_pending for c in lane_configs(config)]
    assert sum(shares) == 10          # a cluster-global budget, not per-lane
    assert shares == [3, 3, 2, 2]     # remainder goes to the first lanes
    assert all(c.lanes == 1 for c in lane_configs(config))
    unbounded = FireLedgerConfig(n_nodes=4, lanes=4)
    assert [c.pool_max_pending
            for c in lane_configs(unbounded)] == [None] * 4


def test_pool_budget_must_cover_every_lane():
    with pytest.raises(ValueError, match="cluster-global budget"):
        FireLedgerConfig(n_nodes=4, lanes=4, pool_max_pending=3)
    with pytest.raises(ValueError, match="lanes must be >= 1"):
        FireLedgerConfig(n_nodes=4, lanes=0)


# ---------------------------------------------------------- watermark merge
def test_merge_releases_in_lane_round_robin():
    node, lanes, merged = _merged_node(3)
    for tag in ("a0", "a1"):
        lanes[0].emit(tag)
    for tag in ("b0", "b1"):
        lanes[1].emit(tag)
    lanes[2].emit("c0")
    assert [d.tag for d in merged] == [(0, "a0"), (1, "b0"), (2, "c0"),
                                       (0, "a1"), (1, "b1")]
    assert node._merge.pending == 0
    # Merged sequence numbers are the running total order index.
    assert [d.sequence for d in merged] == [1, 2, 3, 4, 5]


def test_stalled_lane_blocks_merge_but_only_buffers_others():
    """A crashed lane leader stalls the merge at its watermark; the other
    lanes' slices keep arriving and buffer, and the merge drains
    deterministically once the lane recovers."""
    node, lanes, merged = _merged_node(3)
    lanes[0].emit("a0")
    # Lane 1 is stalled (its leader crashed); lanes 0 and 2 keep going.
    lanes[2].emit("c0")
    lanes[0].emit("a1")
    lanes[2].emit("c1")
    # Only lane 0's head was released before the cursor hit silent lane 1.
    assert [d.tag for d in merged] == [(0, "a0")]
    assert node._merge.pending == 3
    # Lane 1 recovers: the merge drains up to lane 1's new watermark (the
    # cursor stalls on lane 1 again after one full round-robin pass).
    lanes[1].emit("b0")
    assert [d.tag for d in merged] == [(0, "a0"), (1, "b0"), (2, "c0"),
                                       (0, "a1")]
    assert node._merge.pending == 1
    lanes[1].emit("b1")
    assert [d.tag for d in merged] == [(0, "a0"), (1, "b0"), (2, "c0"),
                                       (0, "a1"), (1, "b1"), (2, "c1")]
    assert node._merge.pending == 0


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=4),
       st.randoms(use_true_random=False))
def test_merge_is_independent_of_arrival_interleaving(lane_counts, rng):
    """The merged order is a pure function of the per-lane sequences: any
    interleaving of lane arrivals (same per-lane order) produces the same
    total order — cross-lane timing cannot leak into the state root."""
    deliveries = [(lane, f"t{lane}.{i}")
                  for lane, count in enumerate(lane_counts)
                  for i in range(count)]
    arrival_a = list(deliveries)
    arrival_b = sorted(deliveries, key=lambda _: rng.random())
    orders = []
    for arrival in (arrival_a, arrival_b):
        # Stable per-lane order is the only guarantee the real network
        # gives, so the shuffle only varies *when* each lane's next
        # delivery arrives — each lane still emits its own tags in order.
        per_lane_pos = {lane: [tag for l, tag in deliveries if l == lane]
                        for lane in range(len(lane_counts))}
        node, lanes, merged = _merged_node(len(lane_counts))
        seen = {lane: 0 for lane in range(len(lane_counts))}
        for lane, _ in arrival:
            tag = per_lane_pos[lane][seen[lane]]
            seen[lane] += 1
            lanes[lane].emit(tag)
        orders.append([d.tag for d in merged])
        total = sum(lane_counts)
        assert len(merged) + node._merge.pending == total
    assert orders[0] == orders[1]


# --------------------------------------------------- end-to-end determinism
def _run(lanes, seed, **overrides):
    config = FireLedgerConfig(**{**LANE_CONFIG, "lanes": lanes, **overrides})
    return run_cluster(config, duration=0.4, warmup=0.1, seed=seed)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lanes=st.sampled_from((2, 3)), seed=st.integers(0, 1000))
def test_merged_run_is_pure_function_of_config_and_seed(lanes, seed):
    first = _run(lanes, seed)
    second = _run(lanes, seed)
    assert first.state_root is not None
    assert first.state_root == second.state_root
    assert first.state_deliveries == second.state_deliveries
    assert first.tps == second.tps
    assert first.breakdown == second.breakdown


def test_lane_count_changes_root_but_not_agreement():
    single = _run(1, seed=7)
    multi = _run(4, seed=7)
    # Both pass the cross-node state-agreement oracle inside run_cluster;
    # the merged interleaving is a *different* (but valid) total order.
    assert single.state_root and multi.state_root
    assert single.state_root != multi.state_root
    assert multi.protocol == "multiplexed(fireledger, lanes=4)"


def test_lane_metrics_in_breakdown():
    result = _run(4, seed=5, pool_max_pending=400)
    assert 1.0 <= result.breakdown["lane_skew"] <= 4.0
    lane_keys = [f"lane{i}_tx_rejected" for i in range(4)]
    assert all(key in result.breakdown for key in lane_keys)
    assert sum(result.breakdown[key] for key in lane_keys) == pytest.approx(
        result.breakdown["tx_rejected"])


def test_multiplexed_wraps_baselines_too():
    result = run_cluster(
        FireLedgerConfig(n_nodes=4, batch_size=50, tx_size=512, lanes=2,
                         execute_transactions=True),
        protocol="hotstuff", duration=0.6, warmup=0.1, seed=2)
    assert result.protocol == "multiplexed(hotstuff, lanes=2)"
    assert result.blocks_committed > 0
    assert result.state_root is not None


# ------------------------------------------------------------ crash/recover
def test_lanes_survive_crash_recover_with_state_agreement():
    """Rolling crash/recover under lanes=2: every lane instance on the
    crashed node stops and recovers together (shared endpoint), the merge
    head-of-line blocks on the slow lane, and the cross-node state-agreement
    oracle still passes on the merged order."""
    from repro.scenarios import library
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.spec import LanesSpec

    spec = library.get("rolling-crash").with_overrides(
        lanes=LanesSpec(count=2))
    row = run_scenario(spec, seed=4)[0]
    assert row["lanes"] == 2
    assert row["state_root"]          # oracle raised inside if disagreement
    assert row["state_deliveries"] > 0
    assert row["tps"] > 0
    assert "lane_skew" in row


def test_lanes_win_where_ordering_is_the_bottleneck():
    """The overloaded flash-crowd point is ordering-bound, so four lanes
    commit strictly more transactions than one (the ALDER-style claim)."""
    from repro.scenarios import library
    from repro.scenarios.runner import run_scenario

    spec = library.get("flash-crowd")
    (one,) = run_scenario(spec, lanes=1)
    (four,) = run_scenario(spec, lanes=4)
    assert one["state_root"] and four["state_root"]
    assert four["tps"] > one["tps"]
    assert four["lane_skew"] >= 1.0


# -------------------------------------------------------------- sweep axis
def test_lanes_axis_on_scenarios_and_config_id_canonicalization():
    from repro.experiments import registry
    from repro.experiments.harness import ExperimentScale
    from repro.experiments.sweep import config_id

    spec = registry.get("scenario:paper-lan")
    assert spec.normalize_axis_values({"lanes": (1, 4)}) == {"lanes": (1, 4)}
    with pytest.raises(ValueError, match="no 'lanes' axis"):
        registry.get("fig07").normalize_axis_values({"lanes": (2,)})
    # --axis lanes=1 resumes against (never double-records) the bare run.
    scale = ExperimentScale.quick()
    assert (config_id(spec.name, scale, {"lanes": 1},
                      defaults=spec.axis_defaults)
            == config_id(spec.name, scale, {}, defaults=spec.axis_defaults))
    assert (config_id(spec.name, scale, {"lanes": 4},
                      defaults=spec.axis_defaults)
            != config_id(spec.name, scale, {}, defaults=spec.axis_defaults))
