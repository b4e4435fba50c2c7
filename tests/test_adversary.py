"""Tests for the pluggable adversary layer.

The tentpole claim: any registered strategy composes with any registered
protocol (including multiplexed lanes) through the three contract seams —
outbound traffic holds, proposal construction, the fault timeline — with
zero protocol-code changes, and honest nodes always keep state-root
agreement.  Selective omission is a window on the run's one fault timeline:
``tests/reference_traffic.py`` keeps the network proxy it replaced as the
oracle of a differential test.  Plus the compatibility guarantees:
``scenario:byzantine-minority`` reproduces its committed metric rows, and
the ``--adversary`` axis canonicalises so committed records resume
unchanged.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FireLedgerConfig, FLONode, run_cluster
from repro import adversary
from repro.adversary import (
    AdversaryStrategy,
    EquivocatingWorker,
    TargetedEquivocatingWorker,
)
from repro.baselines.hotstuff import HotStuffReplica
from repro.baselines.replica import PooledReplicaMixin
from repro.experiments import registry, sweep
from repro.experiments.harness import ExperimentScale
from repro.scenarios import FaultSchedule, byzantine, library, run_scenario
from tests import reference_traffic


#: What each strategy leaves in a run's result: a counter of its own, or —
#: for selective omission, whose withheld copies are fault drops — the
#: network's ``msgs_dropped``.
STRATEGY_COUNTERS = {
    "equivocate": "adversary_equivocations",
    "targeted-equivocate": "adversary_equivocations",
    "silent": "adversary_silenced_nodes",
    "delayed-release": "adversary_delayed_msgs",
    "selective-omission": "msgs_dropped",
    "churn": "adversary_departures",
}


def _run(strategy: str, protocol: str = "fireledger", lanes: int = 1,
         seed: int = 7, **kwargs):
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10,
                              tx_size=512, execute_transactions=True,
                              lanes=lanes)
    # Stock 1.0s view timeout would eat the whole run waiting out the
    # Byzantine leader's views; shorten it so progress fits the test.
    with mock.patch.object(HotStuffReplica, "TIMEOUT", 0.15):
        return run_cluster(config, protocol=protocol, duration=1.0,
                           warmup=0.1, seed=seed,
                           faults=FaultSchedule((byzantine(3),)),
                           adversary=strategy, **kwargs)


# ------------------------------------------------------------------ registry
def test_registry_names_all_strategies():
    assert set(adversary.names()) == set(STRATEGY_COUNTERS)


def test_unknown_strategy_raises_with_known_names():
    with pytest.raises(KeyError, match="equivocate"):
        adversary.get("meteor")


def test_build_binds_membership_and_windows():
    strategy = adversary.build("silent", nodes=frozenset({1}),
                               windows={1: ((0.2, 0.6),)})
    assert strategy.nodes == frozenset({1})
    assert not strategy.active(1, 0.1)
    assert strategy.active(1, 0.3)
    assert not strategy.active(1, 0.6)
    assert strategy.windows == {1: ((0.2, 0.6),)}


def test_default_strategy_is_equivocate():
    assert adversary.DEFAULT_STRATEGY == "equivocate"


# ------------------------------------------- strategy x protocol gauntlet
@pytest.mark.parametrize("strategy", sorted(STRATEGY_COUNTERS))
@pytest.mark.parametrize("protocol,lanes", [
    ("fireledger", 1),
    ("hotstuff", 1),
    ("bftsmart", 1),
    ("fireledger", 2),
])
def test_every_strategy_composes_with_every_protocol(strategy, protocol,
                                                     lanes):
    """The acceptance matrix: every strategy runs under every protocol and
    the honest nodes pass the cross-node state-agreement oracle (run_cluster
    raises from ``verify_state_agreement`` on any divergence)."""
    result = _run(strategy, protocol=protocol, lanes=lanes)
    assert result.state_root
    if (strategy, protocol) == ("selective-omission", "hotstuff"):
        # The starved victim never executes (the simplified HotStuff has no
        # state-sync to catch it up), so the agreed common prefix is empty —
        # liveness degrades but safety holds and the cluster still commits.
        assert result.breakdown["blocks_committed"] > 0
    else:
        assert result.state_deliveries > 0
    counter = STRATEGY_COUNTERS[strategy]
    if counter == "msgs_dropped":
        assert result.network.messages_dropped > 0
    else:
        assert counter in result.breakdown
    # Every strategy counter carries the reserved prefix.
    for key in adversary.build(strategy, nodes=frozenset({3})).counters():
        assert key.startswith("adversary_")


def test_equivocation_substitutes_workers_on_fireledger_only():
    result = _run("equivocate")
    assert isinstance(result.nodes[3].workers[0], EquivocatingWorker)
    assert result.breakdown["adversary_equivocations"] > 0

    baseline = _run("equivocate", protocol="hotstuff")
    # No proposer-equivocation seam on the baselines: degrade to fail-stop.
    assert baseline.breakdown["adversary_equivocations"] == 0
    assert not baseline.nodes[3].network.endpoint(3).handlers


def test_targeted_equivocator_aims_at_next_proposers():
    result = _run("targeted-equivocate")
    worker = result.nodes[3].workers[0]
    assert isinstance(worker, TargetedEquivocatingWorker)
    assert worker.equivocations > 0
    # The poisoned half is exactly the next f proposers (f=1 at n=4).
    assert len(set(range(4)) - worker.group_a) == 1
    assert 3 in worker.group_a


def test_silent_strategy_silences_fireledger_node():
    result = _run("silent")
    assert result.breakdown["adversary_silenced_nodes"] == 1
    assert not result.nodes[3].network.endpoint(3).handlers
    assert result.tps > 0  # the other three nodes keep committing


@pytest.mark.parametrize("protocol,lanes", [
    ("fireledger", 1),
    ("hotstuff", 1),
    ("bftsmart", 1),
    ("fireledger", 2),
])
def test_a_silent_node_has_no_handlers_and_starts_no_process(
        protocol, lanes, monkeypatch):
    """``run_cluster`` silences a node for every protocol alike: it never
    starts any of the node's members (its lane nodes, under lanes) and its
    endpoint routes nothing; every other member starts exactly once."""
    started = []
    for node_class in (FLONode, PooledReplicaMixin):
        def spy(node, start=node_class.start):
            started.append(node.node_id)
            start(node)
        monkeypatch.setattr(node_class, "start", spy)
    result = _run("silent", protocol=protocol, lanes=lanes)
    assert sorted(started) == sorted([0, 1, 2] * lanes)
    for node in result.nodes:
        for member in getattr(node, "lanes", (node,)):
            handlers = member.network.endpoint(node.node_id).handlers
            assert bool(handlers) == (node.node_id != 3)
    assert result.tps > 0


def test_delayed_release_slows_but_preserves_safety():
    result = _run("delayed-release")
    assert result.breakdown["adversary_delayed_msgs"] > 0
    assert result.state_root


def test_selective_omission_defaults_to_lowest_honest_victim():
    strategy = adversary.build("selective-omission", nodes=frozenset({0, 3}))
    (phase,) = [phase for phase in strategy.timeline(1.0)
                if phase.senders == (3,)]
    assert (phase.kind, phase.groups) == ("partition", ((3,), (1,)))
    assert phase.receivers == (1,)
    assert (phase.at, phase.until) == (0.0, math.inf)
    result = _run(adversary.build("selective-omission", nodes=frozenset({3})))
    assert result.network.messages_dropped > 0
    assert "adversary_withheld_msgs" not in result.breakdown


def test_an_omission_victim_outside_the_cluster_is_an_error():
    """The victims are phases of the run's timeline, so the schedule's
    node-id check rejects one the cluster does not have."""
    strategy = adversary.build("selective-omission", nodes=frozenset({3}),
                               victims=(9,))
    with pytest.raises(ValueError, match=r"node\(s\) \[9\] outside a 4-node"):
        _run(strategy)


def _observed(result) -> dict:
    """Everything a run reports but its send and drop counts."""
    breakdown = dict(result.breakdown)
    breakdown.pop("adversary_withheld_msgs", None)
    return {"throughput": result.throughput, "latency": result.latency,
            "per_node_tps": result.per_node_tps,
            "per_node_bps": result.per_node_bps, "breakdown": breakdown,
            "state_root": result.state_root,
            "state_deliveries": result.state_deliveries,
            "delivered": result.network.messages_delivered}


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       protocol=st.sampled_from(["fireledger", "hotstuff", "bftsmart"]),
       lanes=st.sampled_from([1, 2]),
       victims=st.sets(st.integers(0, 2), min_size=1),
       window=st.one_of(
           st.none(),
           st.tuples(st.integers(0, 900), st.integers(1, 600)).map(
               lambda span: (span[0] / 1000 + 1e-7,
                             (span[0] + span[1]) / 1000 + 1e-7))))
def test_omission_windows_drop_what_the_proxy_withheld(seed, protocol, lanes,
                                                       victims, window):
    """Differential against the proxy omission it replaced: every number a
    run reports is ``==``, and the copies the proxy withheld are exactly the
    timeline's drops (so also counted as sent).  Window bounds sit off the
    sim's round-number instants: a partition window is closed at ``until``
    where the proxy's ``active`` was half-open, so a copy sent exactly then
    is the one place the two differ."""
    windows = None if window is None else {3: (window,)}

    def run(strategy_class):
        strategy = strategy_class(nodes=frozenset({3}), windows=windows,
                                  victims=victims)
        return strategy, _run(strategy, protocol=protocol, lanes=lanes,
                              seed=seed)

    reference, before = run(reference_traffic.SelectiveOmissionStrategy)
    _, after = run(adversary.SelectiveOmissionStrategy)
    withheld = reference.withheld_messages
    assert _observed(after) == _observed(before)
    assert before.network.messages_dropped == 0
    assert after.network.messages_dropped == withheld
    assert (after.network.messages_sent
            == before.network.messages_sent + withheld)


def test_churn_cycles_departures_and_rejoins():
    result = _run("churn")
    assert result.breakdown["adversary_departures"] >= 1
    assert result.breakdown["adversary_rejoins"] >= 1
    assert result.state_root


def test_churn_respects_timed_windows():
    """A window starting mid-run delays the first departure past ``at``."""
    strategy = adversary.build("churn", nodes=frozenset({3}),
                               windows={3: ((0.3, 0.45),)})
    result = _run(strategy)
    assert result.breakdown["adversary_departures"] >= 1


def test_adversary_instance_passthrough():
    class Probe(AdversaryStrategy):
        name = "probe-instance"

        def counters(self):
            return {"adversary_probe": 1.0}

    result = _run(Probe(nodes=frozenset({3})))
    assert result.breakdown["adversary_probe"] == 1.0


# ------------------------------------------------------- scenario plumbing
def test_scenario_spec_rejects_unknown_adversary():
    from repro.scenarios.spec import AdversarySpec
    with pytest.raises(ValueError, match="unknown adversary strategy"):
        AdversarySpec(strategy="meteor")


def test_gauntlet_scenario_sweeps_strategies():
    spec = library.get("adversary-gauntlet")
    assert spec.faults.byzantine_nodes == frozenset({5, 6})
    (row,) = run_scenario(spec, adversary="silent",
                          scale=ExperimentScale())
    assert row["adversary"] == "silent"
    assert row["adversary_silenced_nodes"] == 2
    assert row["state_root"]


def test_implicit_adversary_keeps_row_shape():
    """A scenario with Byzantine nodes names its adversary with or without
    ``--adversary``: the spec's own strategy and the same strategy swept
    explicitly are one row, strategy counters included."""
    spec = library.get("byzantine-minority")
    (implicit,) = run_scenario(spec, scale=ExperimentScale())
    (explicit,) = run_scenario(spec, scale=ExperimentScale(),
                               adversary="equivocate")
    assert implicit["adversary"] == "equivocate"
    assert implicit["adversary_equivocations"] > 0
    assert implicit == explicit and list(implicit) == list(explicit)
    # ...and without Byzantine nodes there is no adversary to name.
    (benign,) = run_scenario(library.get("rolling-crash"),
                             scale=ExperimentScale(), adversary="silent")
    assert not any(key.startswith("adversary") for key in benign)


def test_adversary_axis_canonicalises_to_committed_config_id():
    """``--adversary equivocate`` is the scenario default, so its config_id
    must collapse onto the committed record's id (resume skips the run);
    a non-default strategy must get a distinct id."""
    spec = registry.get("scenario:byzantine-minority")
    scale = ExperimentScale()
    base = sweep.config_id(spec.name, scale, {}, spec.axis_defaults)
    explicit = sweep.config_id(spec.name, scale, {"adversary": "equivocate"},
                               spec.axis_defaults)
    churned = sweep.config_id(spec.name, scale, {"adversary": "churn"},
                              spec.axis_defaults)
    assert base == explicit == "ff16b43c81e7f0bc"
    assert churned != base


def test_registry_exposes_adversary_axis():
    spec = registry.get("scenario:adversary-gauntlet")
    assert registry.ADVERSARY.name in spec.axes
    assert spec.axis_defaults[registry.ADVERSARY.name] == "equivocate"


# ------------------------------------------------------------ live backend
def test_delayed_release_live_reaches_state_agreement():
    """One strategy on the realtime backend: traffic shaping composes with
    the asyncio/TCP network and honest nodes still agree."""
    (row,) = run_scenario(library.get("adversary-gauntlet"),
                          adversary="delayed-release", backend="realtime")
    assert row["backend"] == "realtime"
    assert row["adversary"] == "delayed-release"
    assert row["adversary_delayed_msgs"] > 0
    assert row["state_root"]
