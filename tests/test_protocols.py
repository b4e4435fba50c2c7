"""Tests of the protocol-pluggable cluster API (`repro.protocols`).

Covers the name -> node-factory table, the generalized `run_cluster`
wiring, cross-protocol determinism, the HotStuff view-timeout regression,
the protocol sweep axis, and the head-to-head report table.
"""

import os
import random
import subprocess
import sys

import pytest

from repro import FireLedgerConfig, run_cluster
from repro import protocols
from repro.baselines.hotstuff import COMMIT_DEPTH, HotStuffReplica
from repro.crypto.cost_model import C5_4XLARGE
from repro.experiments import registry
from repro.experiments.harness import ExperimentScale
from repro.experiments.sweep import config_id
from repro.metrics import report
from repro.metrics.recorder import (
    EVENT_BLOCK_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
)
from repro.scenarios import library
from repro.scenarios.faultplan import FaultSchedule, byzantine, crash
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from tests.conftest import SCENARIO_ROW_LEAD, observe_run_cluster

PROTOCOLS = ("fireledger", "hotstuff", "bftsmart")


# ------------------------------------------------------------------ registry
def test_registry_ships_all_three_protocols():
    assert protocols.names() == list(PROTOCOLS)
    for name in PROTOCOLS:
        assert protocols.get(name) is protocols.PROTOCOLS[name]


@pytest.mark.parametrize("module", [
    "repro.baselines.hotstuff", "repro.baselines.bftsmart",
    "repro.protocols.base", "repro.net.network", "repro.runtime.network",
    "repro.core.cluster"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    """The protocol table sits above the node modules it names and nothing
    below it imports it back: any module works as the entry point, loads no
    part of ``repro.protocols`` unless it is part of it, and the table then
    comes up complete and in order."""
    code = (f"import sys, {module}\n"
            f"assert {module.startswith('repro.protocols')!r} or "
            f"'repro.protocols' not in sys.modules\n"
            f"import repro.protocols as p\n"
            f"assert p.names() == {list(PROTOCOLS)!r}, p.names()")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=60)


def test_registry_rejects_unknown_protocol():
    with pytest.raises(KeyError, match="unknown protocol"):
        protocols.get("tendermint")
    config = FireLedgerConfig(n_nodes=4)
    with pytest.raises(KeyError, match="unknown protocol"):
        run_cluster(config, protocol="tendermint", duration=0.2, warmup=0.0)


# ------------------------------------------------------- unified run_cluster
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_cluster_commits_under_every_protocol(protocol, cluster_result):
    result = cluster_result(batch_size=100, protocol=protocol, duration=1.0,
                            warmup=0.2, seed=2)
    assert result.protocol == protocol
    assert result.tps > 0
    assert result.bps > 0
    assert result.latency.mean > 0
    assert result.breakdown["signatures"] > 0
    if protocol == "fireledger":
        assert result.fast_path_rounds > 0
    else:
        assert result.blocks_committed > 10
        assert result.transactions_committed == pytest.approx(
            result.blocks_committed * 100, rel=0.01)


def test_deprecated_cluster_aliases_are_gone():
    """The pre-protocol-API entry points were removed; run_cluster is the
    single front door for every protocol."""
    import repro
    import repro.baselines
    import repro.core.cluster

    for module in (repro, repro.core, repro.core.cluster):
        assert not hasattr(module, "run_fireledger_cluster")
    for module in (repro.baselines, repro.baselines.hotstuff):
        assert not hasattr(module, "run_hotstuff_cluster")
    for module in (repro.baselines, repro.baselines.bftsmart):
        assert not hasattr(module, "run_bftsmart_cluster")


def test_run_cluster_enforces_minimum_cluster():
    """n >= 4 is ``FireLedgerConfig``'s floor, the same for every protocol."""
    config = FireLedgerConfig(n_nodes=4, batch_size=10, tx_size=512)
    for protocol in protocols.names():
        with pytest.raises(ValueError, match="n >= 4"):
            run_cluster(config.with_overrides(n_nodes=3),
                        protocol=protocol, duration=0.2, warmup=0.0)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_scenario_spec_rejects_fewer_than_four_nodes(protocol):
    with pytest.raises(ValueError, match="at least 4 nodes"):
        ScenarioSpec.from_dict({"name": "x", "protocol": protocol,
                                "n_nodes": 3})


def test_client_batches_are_charged_at_their_actual_size(cluster_result):
    """fill_blocks=False: an idle cluster commits empty batches but must not
    pay full-batch crypto cost for them, so its block cadence beats the
    saturated one."""
    idle = cluster_result(batch_size=1000, fill_blocks=False,
                          protocol="hotstuff", duration=1.0, warmup=0.2,
                          seed=1)
    saturated = cluster_result(batch_size=1000, protocol="hotstuff",
                               duration=1.0, warmup=0.2, seed=1)
    assert idle.tps == 0
    assert idle.bps > saturated.bps * 2


# ------------------------------------------- HotStuff view-timeout regression
def test_hotstuff_skips_crashed_leaders_views_and_stays_live(monkeypatch):
    """A crashed leader's views time out; the chain keeps committing.

    Regression test for the NEW-VIEW model: without it, the first timed-out
    view starves every later leader of votes and the chain halts forever.
    """
    n_nodes, crash_at, duration = 4, 1.0, 3.0
    victim = n_nodes - 1
    config = FireLedgerConfig(n_nodes=n_nodes, batch_size=10, tx_size=256)
    # A tighter view timeout, so the crashed leader's rotations cost 0.1s,
    # not the 1s default.
    monkeypatch.setattr(HotStuffReplica, "TIMEOUT", 0.1)
    result = run_cluster(config, protocol="hotstuff",
                         duration=duration, warmup=0.2, seed=3,
                         faults=FaultSchedule((crash(victim, at=crash_at),)))

    # One recorder record per commit: round_number is the committed view,
    # A the leader's proposal time, C the commit.
    committed = result.nodes[0].recorder.blocks
    committed_after = [block for block in committed
                      if block.events[EVENT_BLOCK_PROPOSAL] > crash_at + 0.1]
    assert committed_after, "chain must stay live after the leader crash"
    # The victim's views never produce a proposal after the crash...
    assert all(block.round_number % n_nodes != victim
               for block in committed_after)
    # ...and every survivor observed at least one view timeout.
    assert result.breakdown["views_timed_out"] >= 1
    # Commits continue until the end of the run, not just once.
    last_commit = max(block.events[EVENT_TENTATIVE_DECISION]
                      for block in committed)
    assert last_commit > duration - 1.0


def test_hotstuff_silent_byzantine_node_exercises_view_skip(cluster_result):
    result = cluster_result(batch_size=10, tx_size=256, protocol="hotstuff",
                            duration=3.0, warmup=0.2, seed=3,
                            faults=FaultSchedule((byzantine(2),)))
    assert result.blocks_committed > 0
    assert result.breakdown["views_timed_out"] >= 1
    # The silent node never runs, so it commits nothing.
    assert result.nodes[2].recorder.blocks == ()
    committed_views = {block.round_number
                       for block in result.nodes[0].recorder.blocks}
    assert committed_views and all(view % 4 != 2 for view in committed_views)


def test_hotstuff_three_chain_depth_still_holds():
    config = FireLedgerConfig(n_nodes=4, batch_size=100, tx_size=512,
                              machine=C5_4XLARGE)
    result = run_cluster(config, protocol="hotstuff", duration=1.0,
                         warmup=0.2, seed=2)
    view_duration = 1.0 / max(result.blocks_committed, 1)
    assert result.latency.mean > (COMMIT_DEPTH - 1) * view_duration


# -------------------------------------------------- cross-protocol determinism
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_same_seed_same_scenario_is_deterministic(protocol):
    spec = library.get("paper-lan").with_overrides(
        protocol=protocol, duration=0.4, warmup=0.1)
    first = run_scenario(spec, seed=11)[0]
    second = run_scenario(spec, seed=11)[0]
    assert first == second


def test_config_id_stable_across_protocol_sweep_reruns():
    scale = ExperimentScale.quick()
    ids = {config_id("scenario:paper-lan", scale, {"protocol": name})
           for name in PROTOCOLS}
    assert len(ids) == 3  # one grid point per protocol
    for name in PROTOCOLS:
        assert (config_id("scenario:paper-lan", scale, {"protocol": name})
                == config_id("scenario:paper-lan", scale, {"protocol": name}))


# ----------------------------------------------------- workloads on baselines
@pytest.mark.parametrize("protocol", ("hotstuff", "bftsmart"))
def test_open_loop_clients_drive_baseline_protocols(protocol):
    """fill_blocks=False + clients: baselines order only submitted traffic."""
    from repro.workload import ClientWorkload

    config = FireLedgerConfig(n_nodes=4, batch_size=50, tx_size=512,
                              fill_blocks=False)
    box = []

    def _setup(env, network, nodes):
        workload = ClientWorkload(env, nodes, n_clients=8,
                                  rate_per_client=400, tx_size=512, seed=1)
        workload.start()
        box.append(workload)

    result = run_cluster(config, protocol=protocol, duration=2.0,
                         warmup=0.2, seed=1, setup=_setup)
    submitted = box[0].total_submitted
    assert submitted > 100
    delivered = max(node.delivered_transactions for node in result.nodes)
    assert 0 < delivered <= submitted


def test_closed_loop_clients_avoid_silent_byzantine_replicas():
    """Scenario workloads target only non-Byzantine nodes: a closed-loop
    client pointed at a silent baseline replica would spin forever."""
    from repro.scenarios import faultplan
    from repro.scenarios.spec import WorkloadSpec

    spec = library.get("paper-lan").with_overrides(
        protocol="bftsmart", duration=1.0, warmup=0.2, batch_size=50,
        workload=WorkloadSpec(shape="closed-loop", n_clients=4,
                              think_time=0.001),
        faults=faultplan.FaultSchedule(phases=(faultplan.byzantine(3),)))
    row = run_scenario(spec, seed=2)[0]
    assert row["completed_req"] >= 4  # every client makes progress


# ------------------------------------------------------- protocol sweep axis
def test_protocol_axis_runs_scenario_under_each_protocol():
    spec = registry.get("scenario:paper-lan")
    rows = spec.run(ExperimentScale.quick(),
                    axis_values={"protocol": ("fireledger", "hotstuff")})
    assert [row["protocol"] for row in rows] == ["fireledger", "hotstuff"]
    assert all(row["tps"] > 0 for row in rows)


def test_protocol_axis_rejected_for_non_scenario_drivers():
    with pytest.raises(ValueError, match="no 'protocol' axis"):
        registry.get("fig07").normalize_axis_values({"protocol": ("hotstuff",)})


def test_bare_string_axis_value_is_one_value_not_characters():
    spec = registry.get("scenario:paper-lan")
    normalized = spec.normalize_axis_values({"protocol": "hotstuff"})
    assert normalized == {"protocol": ("hotstuff",)}


# ------------------------------------------------------ report head-to-head
def test_report_renders_head_to_head_comparison_table():
    rows_by_protocol = {
        "fireledger": {"tps": 200000.0, "latency_p50_ms": 30.0},
        "hotstuff": {"tps": 40000.0, "latency_p50_ms": 90.0},
        "bftsmart": {"tps": 50000.0, "latency_p50_ms": 20.0},
    }
    records = [
        {"config_id": f"id-{name}", "scale": "quick", "seed": 7,
         "params": {"protocol": name},
         "rows": [{"scenario": "paper-lan", "protocol": name, "n": 4,
                   "workers": 4, "batch": 1000, "tx_size": 512,
                   "workload": "saturated", **metrics}]}
        for name, metrics in rows_by_protocol.items()
    ]
    section = report.render_experiment_section("scenario:paper-lan", records)
    assert "Head-to-head protocol comparison" in section
    assert "tps_fireledger" in section and "tps_hotstuff" in section
    assert "fireledger_over_hotstuff" in section
    comparison = report.protocol_comparison_rows(
        report.merged_rows(records))
    assert len(comparison) == 1
    assert comparison[0]["fireledger_over_hotstuff"] == 5.0
    assert comparison[0]["fireledger_over_bftsmart"] == 4.0


def test_comparison_keeps_different_seeds_apart():
    """Runs recorded at different seeds must not collapse into one
    'same configuration, protocol swapped' comparison row."""
    records = [
        {"config_id": "a", "scale": "quick", "seed": 7,
         "params": {},
         "rows": [{"scenario": "paper-lan", "protocol": "fireledger",
                   "n": 4, "tps": 200000.0}]},
        {"config_id": "b", "scale": "quick", "seed": 9,
         "params": {"protocol": "hotstuff"},
         "rows": [{"scenario": "paper-lan", "protocol": "hotstuff",
                   "n": 4, "tps": 40000.0}]},
    ]
    merged = report.merged_rows(records)
    assert {row["seed"] for row in merged} == {7, 9}
    assert report.protocol_comparison_rows(merged) == []


def test_comparison_needs_two_protocols():
    rows = [{"protocol": "fireledger", "tps": 1.0, "n": 4}]
    assert report.protocol_comparison_rows(rows) == []
    assert report.protocol_comparison_rows([{"tps": 1.0, "n": 4}]) == []


# ---------------------------------------------- fig16/fig17 number regression
def test_fig16_fig17_reproduce_pre_refactor_numbers():
    """The rewired comparison figures stay within tolerance of the numbers
    the retired HotStuffCluster/BFTSmartCluster wiring produced (captured at
    quick scale before the protocol-API refactor)."""
    scale = ExperimentScale.quick()
    expected_hotstuff = {4: 51250, 10: 28000}
    expected_bftsmart = {4: 55000, 10: 31000}
    expected_flo = {4: 370000, 10: 98000}

    grid = {"cluster_size": (4, 10), "tx_size": (512,)}
    for row in registry.get("fig16").run(scale, axis_values=grid):
        assert row["hotstuff_tps"] == pytest.approx(
            expected_hotstuff[row["n"]], rel=0.2)
        assert row["flo_tps"] == pytest.approx(expected_flo[row["n"]], rel=0.2)
        assert row["flo_over_hotstuff"] > 1.0
    for row in registry.get("fig17").run(scale, axis_values=grid):
        assert row["bftsmart_tps"] == pytest.approx(
            expected_bftsmart[row["n"]], rel=0.2)
        assert row["flo_over_bftsmart"] > 1.0


# ------------------------------------------------- baselines' paper-lan rows
#: ``scenario:paper-lan`` under the two baselines at the spec's own seed,
#: recorded from the predicate-scan inbox before the keyed mailbox replaced
#: it.  Message matching is host work only: every field must reproduce.
PINNED_PAPER_LAN = {
    "hotstuff": {
        "tps": 36111.1, "bps": 36.11, "latency_p50_ms": 99.9,
        "latency_p95_ms": 110.0, "blocks_committed": 16.25,
        "signatures": 108.0, "transactions_committed": 16250.0,
        "views_timed_out": 0.0, "msgs_dropped": 0,
        "state_root": "0aca8c20738a", "state_deliveries": 18,
        "proposer_bias": 1.053},
    "bftsmart": {
        "tps": 40000.0, "bps": 40.0, "latency_p50_ms": 21.6,
        "latency_p95_ms": 26.7, "blocks_committed": 18.0,
        "instances_timed_out": 0.0, "signatures": 24.0,
        "transactions_committed": 18000.0, "msgs_dropped": 0,
        "state_root": "1e480a281c1d", "state_deliveries": 23,
        "proposer_bias": 4.0},
}


@pytest.mark.parametrize("protocol", sorted(PINNED_PAPER_LAN))
def test_paper_lan_baseline_rows_are_pinned(protocol):
    spec = library.get("paper-lan").with_overrides(protocol=protocol)
    (row,) = run_scenario(spec)
    expected = PINNED_PAPER_LAN[protocol]
    assert {key: row[key] for key in expected} == expected


# ------------------------------------------------- one instrumentation path
@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_node_reports_through_a_recorder(protocol, lanes, cluster_result):
    """A node (each lane's, under multiplexing) owns a recorder holding the
    measured window, and its ``metrics`` is the one fold of recorder data
    plus, at most, the end-state pool keys — only the lane merge may
    combine."""
    from repro.metrics import MetricsRecorder, NodeMetrics

    duration, warmup = 0.5, 0.1
    result = cluster_result(batch_size=100, protocol=protocol, lanes=lanes,
                            pool_max_pending=64, duration=duration,
                            warmup=warmup, seed=2)
    for node in result.nodes:
        inner_nodes = node.lanes if lanes > 1 else [node]
        assert hasattr(node, "lanes") == (lanes > 1)
        for inner in inner_nodes:
            assert isinstance(inner.recorder, MetricsRecorder)
            assert inner.recorder.measure_start == warmup
            assert not hasattr(inner, "measure_start")
            assert "signatures" in inner.recorder.counters
            own = inner.metrics(duration)
            # The pool figures are state read at the end, not events.
            end_state = {"tx_rejected", "tx_requeue_dropped"}
            assert set(own.totals) | set(own.means) >= {"tx_rejected"}
            for extra in end_state:
                own.totals.pop(extra, None)
                own.means.pop(extra, None)
            assert own == NodeMetrics.from_recorder(inner.recorder, duration)


# ----------------------------------------------------------- one row shape
def test_scenario_rows_carry_protocol_counters(monkeypatch):
    """Every protocol and lane count builds its row the same way: the same
    identity and headline columns in the same order, then *every* counter
    the run's breakdown holds (only the ``->`` stage spans stay out), under
    its breakdown name, sorted."""
    results = observe_run_cluster(monkeypatch, lambda env, network, nodes: None)
    spec = library.get("paper-lan").with_overrides(duration=0.4, warmup=0.1)
    for protocol, own in (("fireledger", "fast_path_rounds"),
                          ("hotstuff", "views_timed_out"),
                          ("bftsmart", "instances_timed_out")):
        for lanes in (1, 2):
            (row,) = run_scenario(spec, seed=3, protocol=protocol, lanes=lanes)
            assert tuple(row)[:len(SCENARIO_ROW_LEAD)] == SCENARIO_ROW_LEAD
            assert (row["protocol"], row["lanes"]) == (protocol, lanes)
            counters = sorted(key for key in results[-1].breakdown
                              if "->" not in key)
            assert own in counters and "blocks_committed" in counters
            assert ("lane_skew" in counters) == (lanes > 1)
            assert list(row)[len(SCENARIO_ROW_LEAD):][:len(counters)] == counters
            assert not any("->" in key for key in row)


# ------------------------------------------------------- one routing table
@pytest.mark.parametrize("scenario,overrides", [
    ("paper-lan", {"protocol": "fireledger"}),
    ("paper-lan", {"protocol": "hotstuff"}),
    ("paper-lan", {"protocol": "bftsmart"}),
    ("hotspot-lanes", {"lanes": 4}),
    # RB / AB / recovery / evidence kinds under an equivocator and a loss
    # window; then crash -> recover cycles.
    ("byzantine-minority", {}),
    ("rolling-crash", {}),
])
def test_every_delivered_kind_has_a_binding(monkeypatch, scenario, overrides):
    """Routing is the endpoints' ``(channel, kind)`` table and nothing else:
    with a recording catch-all on every endpoint, no message of a whole run
    falls through to it."""
    unbound = set()

    def record_unbound(env, network, nodes):
        for endpoint in network.endpoints:
            endpoint.router = lambda message: unbound.add(
                (message.channel, message.kind))

    observe_run_cluster(monkeypatch, record_unbound)
    (row,) = run_scenario(library.get(scenario), **overrides)
    assert row["tps"] > 0
    assert unbound == set()


def _kind_constants(module, prefix):
    return {value for name, value in vars(module).items()
            if name.startswith(prefix) and isinstance(value, str)}


def test_a_worker_binds_every_kind_its_layers_define(keystore):
    """Every message kind of WRB, OBBC, BBC, the two reactive broadcasts and
    the body path is bound on the worker's channel — under a lane, on the
    lane's prefixed channel."""
    from repro.broadcast import atomic, reliable
    from repro.consensus import bbc, obbc
    from repro.core import fireledger, wrb
    from repro.net.network import Network
    from repro.protocols.multiplexed import LaneNetwork
    from repro.sim import Environment

    kinds = (_kind_constants(wrb, "WRB_") | _kind_constants(obbc, "OBBC_")
             | _kind_constants(bbc, "BBC_") | _kind_constants(fireledger, "BODY")
             | set(reliable.RB_KINDS) | set(atomic.AB_KINDS))
    assert len(kinds) == 21
    env = Environment()
    network = Network(env, 4)
    config = FireLedgerConfig(n_nodes=4, workers=2)
    fireledger.FireLedgerWorker(env, network, 0, 1, config, keystore)
    fireledger.FireLedgerWorker(env, LaneNetwork(network, 2), 0, 1, config,
                                keystore)
    assert set(network.endpoint(0).handlers) == (
        {("fl/1", kind) for kind in kinds}
        | {("l2!fl/1", kind) for kind in kinds})


@pytest.mark.parametrize("protocol", ["hotstuff", "bftsmart"])
def test_a_baseline_replica_binds_its_inbox_kinds(protocol, keystore):
    from repro.net.network import Network, discard
    from repro.sim import Environment

    env = Environment()
    network = Network(env, 4)
    replicas = protocols.get(protocol)(
        env, network, keystore, FireLedgerConfig(n_nodes=4), random.Random(1))
    for replica in replicas:
        endpoint = network.endpoint(replica.node_id)
        assert replica.INBOX
        assert set(endpoint.handlers) == {
            (replica.CHANNEL, kind)
            for record in replica.INBOX for kind in record.KINDS}
        assert endpoint.router is discard
