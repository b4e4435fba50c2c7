"""The benchmark's six workloads, as ``ScenarioSpec`` literals owned here.

They are deliberately *not* looked up from ``repro.scenarios.library``: an
edit to a shipped scenario must not move the benchmark.  Each entry pairs a
spec with the backend it runs on and the reason it exists; simulated lengths
are sized so one repeat costs 1.4-2.0 wall-seconds on the 2-core reference
box; README.md has the measured layer mix behind every "why" and the
reasons two shapes differ from the issue that asked for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenarios import faultplan
from repro.scenarios.spec import (
    ExecutionSpec,
    LanesSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

_LAN = TopologySpec(kind="lan")
_EXECUTE = ExecutionSpec(enabled=True)
_SATURATED = WorkloadSpec(shape="saturated")
#: The ``flash-crowd`` shape: 16 bursty open-loop clients skewed to node 0.
_FLASH_CROWD = WorkloadSpec(shape="bursty", n_clients=16,
                            rate_per_client=600.0, burst_factor=12.0,
                            burst_period=0.4, burst_duty=0.25,
                            hotspot_skew=1.2)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a spec, its backend and why it was chosen."""

    spec: ScenarioSpec
    backend: str
    why: str

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def live(self) -> bool:
        return self.backend != "sim"

    @property
    def first_fault_at(self) -> float:
        """Time of the first timed fault (crash/loss/...), or the warm-up."""
        timed = [phase.at for phase in self.spec.faults.phases
                 if phase.kind != "byzantine"]
        return min(timed, default=self.spec.warmup)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        ScenarioSpec(
            name="lan-saturated",
            n_nodes=4, workers=4, batch_size=100, tx_size=512,
            duration=1.6, warmup=0.3,
            topology=_LAN, workload=_SATURATED, execution=_EXECUTE),
        backend="sim",
        why="Paper single-DC deployment (n=4, all 4 FLO workers, b=100, "
            "saturated): the balanced case where every FireLedger layer "
            "shows (sim 37 %, core 23 %, crypto 18 %, net 8 %, ledger 7 %); "
            "fan-out 3."),
    Workload(
        ScenarioSpec(
            name="scale-n64",
            n_nodes=64, workers=1, batch_size=100, tx_size=512,
            duration=0.8, warmup=0.3,
            topology=_LAN, workload=_SATURATED, execution=_EXECUTE),
        backend="sim",
        why="Fig. 10 scale point (n=64): fan-out 63 makes kernel and net "
            "broadcast work dominate; ledger work must not show here."),
    Workload(
        ScenarioSpec(
            name="flash-crowd-lanes4",
            n_nodes=4, workers=1, batch_size=100, tx_size=512,
            duration=0.8, warmup=0.2,
            topology=_LAN, workload=_FLASH_CROWD, execution=_EXECUTE,
            lanes=LanesSpec(count=4)),
        backend="sim",
        why="Client-driven: tx pool, per-tx hashing, execution with nonce "
            "conflicts and the 4-lane merge; explicit transactions where "
            "lan-saturated uses filler; the point where ordering capacity "
            "moves tps."),
    Workload(
        ScenarioSpec(
            name="bftsmart-lan", protocol="bftsmart",
            n_nodes=4, workers=4, batch_size=1000, tx_size=512,
            duration=16.0, warmup=0.5,
            topology=_LAN, workload=_SATURATED, execution=_EXECUTE),
        backend="sim",
        why="Fig. 17 baseline: the same sim kernel driven through "
            "timeouts, process wake-ups and stores instead of batch trains "
            "(sim+baselines > 90 %); guards the ROADMAP 2d replica merge."),
    Workload(
        ScenarioSpec(
            name="crash-recover",
            n_nodes=4, workers=1, batch_size=100, tx_size=512,
            duration=8.0, warmup=0.2,
            topology=_LAN, workload=_SATURATED, execution=_EXECUTE,
            faults=faultplan.FaultSchedule(phases=(
                faultplan.crash(3, at=1.0), faultplan.recover(3, at=2.0),
                faultplan.crash(3, at=3.0), faultplan.recover(3, at=4.0),
                faultplan.crash(3, at=5.0), faultplan.recover(3, at=6.0),
                faultplan.crash(3, at=7.0),
            ))),
        backend="sim",
        why="Paper 7.4.1 crash runs (n=4, f=1): node 3 crashes and recovers "
            "three times, then stays down; the only workload with failed "
            "rounds and the net drop path, and the one that yields time "
            "without service."),
    Workload(
        ScenarioSpec(
            name="live-flash-crowd",
            n_nodes=4, workers=1, batch_size=100, tx_size=512,
            duration=2.5, warmup=0.5,
            topology=_LAN, workload=_FLASH_CROWD, execution=_EXECUTE),
        backend="realtime",
        why="The only live number: realtime asyncio/TCP backend over "
            "loopback; the single event loop saturates, so runtime "
            "framing/pickling/drain cost sets tps and in-program open-loop "
            "clients share the loop."),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
