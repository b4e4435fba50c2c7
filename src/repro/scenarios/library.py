"""The shipped scenario library.

Each entry is a plain :class:`~repro.scenarios.spec.ScenarioSpec` — exactly
what a user would write in TOML or a dict — registered with the experiment
registry under ``scenario:<name>`` so ``repro run scenario:<name>`` and
``repro sweep scenario:<name> --cluster-sizes ...`` work with the existing
resume / ``--jobs`` / report machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.scenarios import faultplan

if TYPE_CHECKING:  # runtime import would cycle through the registry
    from repro.experiments.harness import ExperimentScale
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    ExecutionSpec,
    LanesSpec,
    LinkSpec,
    PoolSpec,
    RegionSpec,
    RetentionSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

#: Registry-name prefix for scenario experiments.
PREFIX = "scenario:"


def _geo5_topology() -> TopologySpec:
    """Five AWS-like regions, two nodes each, with bandwidth-capped links."""
    regions = (
        RegionSpec("virginia", nodes=2),
        RegionSpec("oregon", nodes=2),
        RegionSpec("frankfurt", nodes=2),
        RegionSpec("singapore", nodes=2),
        RegionSpec("sao-paulo", nodes=2),
    )
    links = (
        LinkSpec("virginia", "oregon", 30, bandwidth_mbps=500),
        LinkSpec("virginia", "frankfurt", 44, bandwidth_mbps=400),
        LinkSpec("virginia", "singapore", 110, bandwidth_mbps=250),
        LinkSpec("virginia", "sao-paulo", 58, bandwidth_mbps=200),
        LinkSpec("oregon", "frankfurt", 79, bandwidth_mbps=300),
        LinkSpec("oregon", "singapore", 83, bandwidth_mbps=250),
        LinkSpec("oregon", "sao-paulo", 89, bandwidth_mbps=150),
        LinkSpec("frankfurt", "singapore", 82, bandwidth_mbps=250),
        LinkSpec("frankfurt", "sao-paulo", 102, bandwidth_mbps=150),
        LinkSpec("singapore", "sao-paulo", 165, bandwidth_mbps=100),
    )
    return TopologySpec(kind="regions", regions=regions, links=links)


SCENARIOS: dict[str, ScenarioSpec] = {}


def _add(spec: ScenarioSpec) -> None:
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already defined")
    SCENARIOS[spec.name] = spec


_add(ScenarioSpec(
    name="paper-lan",
    description="The paper's single data-center deployment: saturated "
                "blocks, no faults (Sections 7.2-7.3).",
    n_nodes=4, workers=4, batch_size=1000, tx_size=512,
    duration=0.6, warmup=0.15,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="saturated"),
    execution=ExecutionSpec(enabled=True),
))

_add(ScenarioSpec(
    name="paper-wan",
    description="The paper's geo-distributed deployment: ten AWS regions, "
                "saturated blocks, no faults (Section 7.5).",
    n_nodes=10, workers=2, batch_size=1000, tx_size=512,
    duration=1.2, warmup=0.2,
    topology=TopologySpec(kind="paper-geo"),
    workload=WorkloadSpec(shape="saturated"),
    execution=ExecutionSpec(enabled=True),
))

_add(ScenarioSpec(
    name="geo-5region",
    description="Five-region WAN with per-link latency and bandwidth caps "
                "(thin sao-paulo links), open-loop clients instead of "
                "saturated blocks.",
    n_nodes=10, workers=1, batch_size=100, tx_size=512,
    duration=2.4, warmup=0.4,
    topology=_geo5_topology(),
    workload=WorkloadSpec(shape="open-loop", n_clients=20,
                          rate_per_client=400.0),
    execution=ExecutionSpec(enabled=True),
))

_add(ScenarioSpec(
    name="flash-crowd",
    description="A LAN cluster overloaded by a flash crowd: bursty "
                "open-loop clients (12x rate spikes) skewed toward one "
                "hotspot node submit faster than a single ordering "
                "instance drains, so the run is ordering-bound (one "
                "worker) — the operating point where multiplexed lanes "
                "pay off.",
    n_nodes=4, workers=1, batch_size=100, tx_size=512,
    duration=1.2, warmup=0.2,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="bursty", n_clients=16,
                          rate_per_client=600.0, burst_factor=12.0,
                          burst_period=0.4, burst_duty=0.25,
                          hotspot_skew=1.2),
    execution=ExecutionSpec(enabled=True),
))

_add(ScenarioSpec(
    name="hotspot-transfers",
    description="Contended account transfers: more clients than accounts "
                "(shared senders collide on nonces) and Zipf-skewed "
                "recipients concentrate writes on a few hot accounts, "
                "exercising stale rejection, conflicts and the fairness "
                "metrics.",
    n_nodes=4, workers=2, batch_size=100, tx_size=512,
    duration=1.2, warmup=0.2,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="open-loop", n_clients=24,
                          rate_per_client=300.0),
    execution=ExecutionSpec(enabled=True, n_accounts=8,
                            recipient_skew=1.5),
))

_add(ScenarioSpec(
    name="hotspot-lanes",
    description="The hotspot-transfers contention pattern ordered by four "
                "multiplexed consensus lanes: senders hash to lanes, and "
                "with only five hot accounts two of them share a lane, so "
                "the lane_skew fairness metric exposes the imbalance while "
                "the merged total order keeps state agreement.",
    n_nodes=4, workers=2, batch_size=100, tx_size=512,
    duration=1.2, warmup=0.2,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="open-loop", n_clients=24,
                          rate_per_client=300.0),
    execution=ExecutionSpec(enabled=True, n_accounts=5,
                            recipient_skew=1.5),
    lanes=LanesSpec(count=4),
))

_add(ScenarioSpec(
    name="rolling-crash",
    description="Rolling outage: nodes crash and recover one after another "
                "(never more than f=1 down at once), ending with one node "
                "still down.",
    n_nodes=4, workers=1, batch_size=100, tx_size=512,
    duration=1.6, warmup=0.15,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="saturated"),
    execution=ExecutionSpec(enabled=True),
    faults=faultplan.FaultSchedule(phases=(
        faultplan.crash(3, at=0.30),
        faultplan.recover(3, at=0.60),
        faultplan.crash(2, at=0.80),
        faultplan.recover(2, at=1.10),
        faultplan.crash(1, at=1.30),
    )),
))

_add(ScenarioSpec(
    name="soak",
    description="Long-horizon bounded-memory soak: a LAN cluster under "
                "bursty overload (16x spikes) with chain pruning, streamed "
                "metrics and a capped transaction pool, so live state stays "
                "O(retention window) for the whole run.",
    n_nodes=4, workers=2, batch_size=25, tx_size=512,
    duration=5.0, warmup=0.5,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="bursty", n_clients=12,
                          rate_per_client=250.0, burst_factor=16.0,
                          burst_period=0.5, burst_duty=0.3),
    # Fewer accounts than clients: shared senders create the stale-nonce
    # traffic the soak fairness section reports.
    execution=ExecutionSpec(enabled=True, n_accounts=8),
    retention=RetentionSpec(chain_rounds=64),
    pool=PoolSpec(max_pending=200),
))

_add(ScenarioSpec(
    name="byzantine-minority",
    description="An f-sized Byzantine minority equivocates for the whole "
                "run while a 5% message-loss window adds omission stress.",
    n_nodes=7, workers=1, batch_size=100, tx_size=512,
    duration=1.0, warmup=0.2,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="saturated"),
    execution=ExecutionSpec(enabled=True),
    faults=faultplan.FaultSchedule(phases=(
        faultplan.byzantine((5, 6)),
        faultplan.loss(0.05, start=0.4, end=0.8),
    )),
))

_add(ScenarioSpec(
    name="adversary-gauntlet",
    description="The adversary gauntlet: an f-sized Byzantine minority at "
                "paper-LAN scale, meant to be swept over every registered "
                "adversary strategy and protocol with the cross-node "
                "state-root oracle as the safety gate.  Long enough "
                "(3s) that HotStuff commits measurable work past the "
                "view timeouts the fail-stop strategies induce.",
    n_nodes=7, workers=1, batch_size=100, tx_size=512,
    duration=3.0, warmup=0.2,
    topology=TopologySpec(kind="lan"),
    workload=WorkloadSpec(shape="saturated"),
    execution=ExecutionSpec(enabled=True),
    faults=faultplan.FaultSchedule(phases=(
        faultplan.byzantine((5, 6)),
    )),
))


def names() -> list[str]:
    """Shipped scenario names (bare, without the ``scenario:`` prefix)."""
    return list(SCENARIOS)


def get(name: str) -> ScenarioSpec:
    """Look up a scenario by bare or ``scenario:``-prefixed name."""
    key = name[len(PREFIX):] if name.startswith(PREFIX) else name
    try:
        return SCENARIOS[key]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {', '.join(names())}") from None


def lookup(name: str) -> Optional[ScenarioSpec]:
    """Like :func:`get` but returns None for non-scenario names."""
    key = name[len(PREFIX):] if name.startswith(PREFIX) else name
    return SCENARIOS.get(key)


def driver_for(spec: ScenarioSpec) -> Callable[..., list]:
    """A registry-compatible driver function bound to one scenario.

    The function's ``__name__``/``__doc__`` feed the registry's
    function-name lookup and the report's description line.
    """
    def _driver(scale: "Optional[ExperimentScale]" = None,
                **axis_overrides) -> list[dict]:
        return run_scenario(spec, scale=scale, **axis_overrides)

    _driver.__name__ = "scenario_" + spec.name.replace("-", "_")
    _driver.__qualname__ = _driver.__name__
    _driver.__doc__ = spec.description or f"Scenario {spec.name}."
    return _driver
