"""Tests for the declarative scenario subsystem (and its satellites).

Covers the WAN topology latency model, workload shapes and validation, the
unified fault-schedule timeline (crash→recover→crash, overlapping partition
and Byzantine phases, determinism under a fixed seed), spec loading from
dicts/TOML, registry integration, and the docs contract that every scenario
named in EXPERIMENTS.md resolves in the registry.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import registry
from repro.experiments.harness import ExperimentScale
from repro.net.latency import WanTopologyLatency
from repro.net.message import Message
from repro.scenarios import (
    FaultPhase,
    FaultSchedule,
    ScenarioSpec,
    byzantine,
    crash,
    library,
    loss,
    partition,
    recover,
    run_scenario,
    slow,
)
from repro.scenarios.spec import TopologySpec, WorkloadSpec
from repro.sim import Environment
from repro.workload.clients import (
    BurstRate,
    OpenLoopClient,
    RampRate,
    hotspot_weights,
)
from tests import reference_faults
from tests.conftest import make_network

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- topologies
def test_wan_topology_latency_matrix_and_bandwidth():
    model = WanTopologyLatency(
        assignment=("east", "east", "west"),
        one_way_s={frozenset(("east", "west")): 0.040},
        local_one_way={"east": 0.0005},
        bandwidth_bps={frozenset(("east", "west")): 1_000_000.0})
    assert model._rows[0][1] == 0.0005          # intra-region
    assert model._rows[0][2] == 0.040           # cross-region
    assert model.transfer_delay(0, 1, 10_000) == 0.0  # never capped locally
    assert model.transfer_delay(0, 2, 1_000_000) == pytest.approx(1.0)
    sample = model.sample(0, 2, random.Random(1))
    assert sample >= 0.040


def test_wan_topology_unknown_pairs_use_default():
    model = WanTopologyLatency(assignment=("a", "b"), default_one_way=0.07)
    assert model._rows[0][1] == 0.07


def test_topology_spec_assignment_exact_and_round_robin():
    topo = TopologySpec.from_dict({
        "kind": "regions",
        "regions": [{"name": "x", "nodes": 2}, {"name": "y", "nodes": 1}],
        "links": [{"a": "x", "b": "y", "one_way_ms": 25}],
    })
    assert topo.assignment(3) == ("x", "x", "y")      # counts match: fill
    assert topo.assignment(4) == ("x", "y", "x", "y")  # mismatch: round-robin
    model = topo.build(3)
    assert model._rows[0][2] == pytest.approx(0.025)


def test_topology_spec_rejects_unknown_link_region():
    with pytest.raises(ValueError, match="unknown region"):
        TopologySpec.from_dict({
            "kind": "regions",
            "regions": [{"name": "x"}],
            "links": [{"a": "x", "b": "nope", "one_way_ms": 1}],
        })


def test_topology_spec_rejects_duplicate_and_self_links():
    regions = [{"name": "x"}, {"name": "y"}]
    with pytest.raises(ValueError, match="duplicate link"):
        TopologySpec.from_dict({
            "kind": "regions", "regions": regions,
            "links": [{"a": "x", "b": "y", "one_way_ms": 30},
                      {"a": "y", "b": "x", "one_way_ms": 80}],
        })
    with pytest.raises(ValueError, match="connects a region to itself"):
        TopologySpec.from_dict({
            "kind": "regions", "regions": regions,
            "links": [{"a": "x", "b": "x", "one_way_ms": 1}],
        })


# ----------------------------------------------------------------- workloads
def test_open_loop_client_rejects_bad_tx_size(env):
    """Regression: tx_size used to be accepted unvalidated."""
    with pytest.raises(ValueError, match="tx_size"):
        OpenLoopClient(env, 0, [object()], rate_per_second=10.0, tx_size=0)
    with pytest.raises(ValueError, match="tx_size"):
        OpenLoopClient(env, 0, [object()], rate_per_second=10.0, tx_size=-4)


def test_open_loop_client_still_rejects_bad_rate(env):
    with pytest.raises(ValueError, match="rate_per_second"):
        OpenLoopClient(env, 0, [object()], rate_per_second=0.0)


def test_rate_shapes():
    ramp = RampRate(start=10.0, end=110.0, ramp_time=2.0)
    assert ramp.rate(0.0) == 10.0
    assert ramp.rate(1.0) == pytest.approx(60.0)
    assert ramp.rate(5.0) == 110.0
    burst = BurstRate(base=10.0, burst=100.0, period=1.0, duty=0.25)
    assert burst.rate(0.1) == 100.0
    assert burst.rate(0.5) == 10.0
    assert burst.rate(1.1) == 100.0


def test_hotspot_weights_skew():
    flat = hotspot_weights(4, 0.0)
    assert flat == [1.0] * 4
    skewed = hotspot_weights(4, 1.0)
    assert skewed[0] > skewed[1] > skewed[3]


def test_closed_loop_client_validates_weights_at_construction(env):
    from repro.workload.clients import ClosedLoopClient

    with pytest.raises(ValueError, match="one per node"):
        ClosedLoopClient(env, 0, [object(), object()], weights=[1.0])


def test_workload_spec_validation():
    with pytest.raises(ValueError, match="unknown workload shape"):
        WorkloadSpec(shape="chaotic")
    with pytest.raises(ValueError, match="n_clients"):
        WorkloadSpec(shape="open-loop", n_clients=0)


# ------------------------------------------------------------ fault schedule
def test_crash_recover_crash_same_node_timeline(env):
    network = make_network(env, 4)
    schedule = FaultSchedule(phases=(
        crash(3, at=0.1), recover(3, at=0.2), crash(3, at=0.3)))
    schedule.install(env, network)

    observed = []
    for t in (0.05, 0.15, 0.25, 0.35):
        env.call_later(t, lambda _=None: observed.append(
            (round(env.now, 2), network.is_crashed(3))))
    env.run(until=0.5)
    assert observed == [(0.05, False), (0.15, True), (0.25, False), (0.35, True)]
    # Final timeline state is crashed -> excluded from correct-node metrics.
    assert schedule.excluded_nodes() == frozenset({3})


def test_recovered_node_is_not_excluded():
    schedule = FaultSchedule(phases=(crash(2, at=0.1), recover(2, at=0.4)))
    assert schedule.excluded_nodes() == frozenset()


def test_phase_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPhase(kind="meteor")
    with pytest.raises(ValueError, match="until > at"):
        partition([(0, 1), (2, 3)], start=0.5, end=0.5)
    with pytest.raises(ValueError, match="loss_rate"):
        loss(0.0)
    with pytest.raises(ValueError, match="until > at"):
        byzantine(1, at=0.5, until=0.5)
    with pytest.raises(ValueError, match="overlapping byzantine windows"):
        FaultSchedule(phases=(byzantine(1, at=0.0, until=0.5),
                              byzantine(1, at=0.3)))
    schedule = FaultSchedule(phases=(crash(9, at=0.1),))
    with pytest.raises(ValueError, match="outside a 4-node cluster"):
        schedule.validate(4)


# ------------------------------------------- the schedule is the controller
#: A coarse grid, so ``now == at`` and ``now == until`` (both inside the
#: window) and overlapping windows are the common case, not the rare one.
_INSTANTS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
_NODES = st.integers(min_value=0, max_value=4)
_FILTERS = st.none() | st.lists(_NODES, max_size=3, unique=True)


@st.composite
def _timeline_phases(draw):
    """Any phase a timeline may hold: the three link windows (with sender /
    receiver filters), selective omission's one-way partition, and the
    kinds the network must not be asked about."""
    at = draw(st.sampled_from(_INSTANTS[:-1]))
    until = draw(st.sampled_from([t for t in _INSTANTS if t > at]
                                 + [float("inf")]))
    kind = draw(st.sampled_from(["partition", "one-way", "loss", "slow",
                                 "crash", "byzantine"]))
    if kind == "partition":
        # Groups need not cover the cluster: an unlisted node is cut off.
        labels = draw(st.lists(st.integers(0, 2), min_size=5, max_size=5))
        groups = [[node for node, label in enumerate(labels) if label == g]
                  for g in (0, 1)]
        return partition(groups, start=at, end=until)
    if kind == "one-way":
        # What ``SelectiveOmission.timeline`` declares per Byzantine node.
        node = draw(_NODES)
        victims = tuple(draw(st.lists(_NODES.filter(lambda v: v != node),
                                      min_size=1, max_size=3, unique=True)))
        return FaultPhase(kind="partition", groups=((node,), victims),
                          senders=(node,), receivers=victims, at=at,
                          until=until)
    if kind == "loss":
        return loss(draw(st.sampled_from([0.3, 0.7, 1.0])), start=at,
                    end=until, senders=draw(_FILTERS),
                    receivers=draw(_FILTERS))
    if kind == "slow":
        return slow(draw(st.sampled_from([0.001, 0.25])), start=at, end=until,
                    senders=draw(_FILTERS), receivers=draw(_FILTERS))
    if kind == "crash":
        return crash(draw(_NODES), at=at)
    return byzantine(draw(_NODES), at=at, until=until)


@settings(max_examples=200, deadline=None)
@given(phases=st.lists(_timeline_phases(), max_size=6),
       stream=st.lists(st.tuples(_NODES, _NODES, st.sampled_from(_INSTANTS)),
                       max_size=30),
       seed=st.integers(0, 2 ** 16))
def test_fault_schedule_answers_like_the_reference_controllers(
        phases, stream, seed):
    """``FaultSchedule.link_fault`` against the per-copy walk it replaced
    (``tests/reference_faults.py::walk``): a copy's ``fate`` drops what
    ``should_drop`` dropped and otherwise adds what ``extra_delay`` added,
    with the same rng stream — a loss window draws once per matching copy,
    and not at all once an earlier window has dropped it.  Where the answer
    is ``None`` the walk neither drops, delays nor draws.  The walk itself
    answers like the controller classes it replaced wherever those can
    speak: their ``PartitionFault`` has no sender / receiver filters."""
    try:
        schedule = FaultSchedule(tuple(phases))
    except ValueError:  # overlapping byzantine windows for one node
        return
    walked = reference_faults.walk(schedule)
    reference = reference_faults.controller(schedule)
    assert bool(schedule.link_phases) == (reference is not None)
    if reference is None:
        reference = reference_faults.FaultController()
    filtered = any(phase.kind == "partition" and (
        phase.senders is not None or phase.receivers is not None)
        for phase in schedule.phases)
    ours, walks, theirs = (random.Random(seed) for _ in range(3))
    for sender, receiver, now in stream:
        message = Message(sender=sender, channel="c", kind="K", payload=None)
        dropped = walked.should_drop(message, receiver, now, walks)
        extra = walked.extra_delay(message, receiver, now, walks)
        fate = schedule.link_fault(sender, now)
        if fate is None:
            assert (dropped, extra) == (False, 0.0)
        else:
            got = fate(receiver, ours)
            assert (got is None) == dropped
            assert dropped or got == extra
        assert ours.getstate() == walks.getstate()
        if not filtered:
            assert dropped == reference.should_drop(message, receiver, now,
                                                    theirs)
            assert extra == reference.extra_delay(message, receiver, now,
                                                  theirs)
            assert walks.getstate() == theirs.getstate()


def test_run_cluster_consults_the_schedule_only_for_link_windows(monkeypatch):
    """A crash/recover- or membership-only timeline leaves the network
    without a fault controller (broadcasts stay on the fan-out fast path); a
    partition / loss / slow window makes the schedule itself the controller."""
    from repro.core import cluster

    seen = []
    network_class = cluster.Network

    def recording(env, n_nodes, **options):
        seen.append(options["fault_controller"])
        return network_class(env, n_nodes, **options)

    monkeypatch.setattr(cluster, "Network", recording)
    config = cluster.FireLedgerConfig(n_nodes=4, batch_size=10)
    timeline = FaultSchedule((crash(3, at=0.05), recover(3, at=0.1),
                              byzantine(2)))
    windowed = FaultSchedule(timeline.phases + (loss(0.1, start=0.05),))
    for faults in (None, timeline, windowed):
        cluster.run_cluster(config, duration=0.15, warmup=0.0, faults=faults)
    assert seen == [None, None, windowed]


def test_overlapping_partition_and_byzantine_phases():
    """A partition window overlapping Byzantine equivocation still runs and
    keeps correct-node chains consistent."""
    spec = ScenarioSpec(
        name="partition-plus-byzantine",
        n_nodes=4, workers=1, batch_size=10,
        duration=0.8, warmup=0.1,
        faults=FaultSchedule(phases=(
            byzantine(3),
            partition([(0, 1), (2, 3)], start=0.25, end=0.45),
        )))
    assert spec.faults.byzantine_nodes == frozenset({3})
    rows = run_scenario(spec, scale=ExperimentScale(seed=11))
    (row,) = rows
    assert row["msgs_dropped"] > 0          # the partition really dropped traffic
    assert row["fast_path_rounds"] > 0           # and the cluster still made progress


def test_scenario_rows_deterministic_under_fixed_seed():
    spec = library.get("rolling-crash")
    scale = ExperimentScale(seed=23)
    assert run_scenario(spec, scale=scale) == run_scenario(spec, scale=scale)


def test_rolling_crash_scenario_sees_recover_and_final_outage():
    rows = run_scenario(library.get("rolling-crash"))
    (row,) = rows
    assert row["failed_rounds"] > 0         # outages really bit
    assert row["tps"] > 0                   # but throughput survived
    excluded = library.get("rolling-crash").faults.excluded_nodes()
    assert excluded == frozenset({1})       # only the never-recovered node


# ------------------------------------------------------------- spec loading
def _example_dict() -> dict:
    return {
        "name": "example",
        "n_nodes": 4,
        "batch_size": 10,
        "duration": 0.5,
        "warmup": 0.1,
        "topology": {
            "kind": "regions",
            "regions": [{"name": "a", "nodes": 2}, {"name": "b", "nodes": 2}],
            "links": [{"a": "a", "b": "b", "one_way_ms": 20,
                       "bandwidth_mbps": 100}],
        },
        "workload": {"shape": "open-loop", "n_clients": 2,
                     "rate_per_client": 50.0},
        "faults": {"phases": [
            {"kind": "crash", "nodes": [3], "at": 0.2},
            {"kind": "recover", "nodes": [3], "at": 0.35},
        ]},
    }


def test_scenario_from_dict_and_run():
    spec = ScenarioSpec.from_dict(_example_dict())
    assert spec.topology.kind == "regions"
    assert spec.workload.shape == "open-loop"
    assert [p.kind for p in spec.faults.phases] == ["crash", "recover"]
    rows = run_scenario(spec)
    assert rows[0]["scenario"] == "example"
    assert rows[0]["submitted_tx"] > 0


def test_scenario_from_dict_rejects_unknown_keys():
    data = _example_dict()
    data["wibble"] = 1
    with pytest.raises(ValueError, match="unknown ScenarioSpec keys"):
        ScenarioSpec.from_dict(data)
    data = _example_dict()
    data["workload"]["surprise"] = True
    with pytest.raises(ValueError, match="unknown WorkloadSpec keys"):
        ScenarioSpec.from_dict(data)


def test_scenario_from_toml():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    del tomllib
    text = """
    name = "toml-example"
    n_nodes = 4
    duration = 0.4
    warmup = 0.1

    [topology]
    kind = "lan"

    [[faults.phases]]
    kind = "crash"
    nodes = [3]
    at = 0.2
    """
    spec = ScenarioSpec.from_toml(text)
    assert spec.name == "toml-example"
    assert spec.faults.phases[0].nodes == (3,)


def test_fault_node_ids_revalidated_when_swept():
    spec = library.get("byzantine-minority")  # references nodes 5 and 6
    with pytest.raises(ValueError, match="outside a 4-node cluster"):
        run_scenario(spec, n_nodes=4)


# ---------------------------------------------------------------- registry
def test_every_library_scenario_is_registered():
    for name in library.names():
        spec = registry.get("scenario:" + name)
        assert spec.title == f"Scenario — {name}"
        assert set(spec.grid) == {"cluster_size", "workers", "protocol",
                                  "lanes", "backend", "adversary"}


def test_a_scenario_grid_default_is_the_spec_itself():
    """A scenario's point gets every axis, given or not, so its grid
    defaults must change nothing: overriding a library spec with them is
    the identity, and the run's backend defaults to the simulator."""
    for name in library.names():
        spec = library.get(name)
        grid = registry.get("scenario:" + name).grid
        fields = {registry.AXES[axis].keyword: default(None)
                  for axis, default in grid.items()}
        assert fields.pop("backend") == ("sim",)
        assert spec.with_overrides(**{keyword: value for keyword, (value,)
                                      in fields.items()}) == spec


def test_scenario_sweep_and_resume(tmp_path):
    from repro.experiments.parallel import run_planned

    plans = [(registry.get("scenario:paper-lan"), [ExperimentScale.quick()],
              {"cluster_size": (4, 7)})]
    (planned,) = run_planned(plans, tmp_path, "quick")
    assert len(planned) == 2 and None not in planned  # 2 ran, 0 skipped
    # Re-running the same grid resumes: everything already recorded.
    assert run_planned(plans, tmp_path, "quick") == [[None, None]]


def test_report_renders_scenario_section(tmp_path):
    from repro.experiments.parallel import run_planned
    from repro.metrics import report

    run_planned([(registry.get("scenario:paper-lan"),
                  [ExperimentScale.quick()], {"cluster_size": (4,)})],
                tmp_path, "quick")
    text = report.render_experiments_md(report.load_results(tmp_path))
    assert "## Scenario — paper-lan" in text
    assert "**Topology:** single data-center LAN" in text
    assert "**Workload:** saturated blocks" in text


def test_experiments_md_scenario_names_resolve():
    """Docs check: every scenario named in EXPERIMENTS.md must exist."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    names = set(re.findall(r"scenario:[a-z0-9][a-z0-9-]*", text))
    assert names, "EXPERIMENTS.md should mention the shipped scenarios"
    for name in names:
        registry.get(name)  # raises KeyError on a dangling reference


@pytest.mark.parametrize("path", [
    (), ("topology",), ("topology", "regions", 0), ("topology", "links", 0),
    ("workload",), ("execution",), ("retention",), ("pool",), ("lanes",),
    ("adversary",), ("faults",), ("faults", "phases", 0),
])
def test_every_block_rejects_unknown_keys(path):
    """One field-driven parser: a misspelt key fails loudly at any depth."""
    from dataclasses import asdict

    document = asdict(library.get("byzantine-minority").with_overrides(
        topology=library.get("geo-5region").topology, n_nodes=10))
    block = document
    for step in path:
        block[step] = (list(block[step]) if isinstance(block[step], tuple)
                       else block[step])
        block = block[step]
    block["bogus"] = 1
    with pytest.raises(ValueError, match="unknown .* keys.*bogus"):
        ScenarioSpec.from_dict(document)
