"""Live-vs-sim calibration: one scenario on both backends, deltas in a row.

The simulator's cost model (CPU budgets, NIC bandwidth, latency samples) is
an approximation; the realtime backend replaces every modeled quantity it
can with the real thing — wall-clock timers, loopback TCP sockets, actual
(de)serialization.  The ``calibrate`` driver runs the *same* scenario spec
through both backends and records the throughput/latency ratios, making the
paper-vs-repro gap a measured number in ``results/calibrate.jsonl`` instead
of a modeling assumption.

The two runs are not expected to match: a live run commits what one
oversubscribed process can push through loopback sockets in real seconds,
while the simulator charges modeled costs against virtual time.  State roots
are also not comparable across backends (different message interleavings
order different transaction prefixes); each backend's run independently
passes the cross-node ``verify_state_agreement`` oracle before its row is
accepted, which is the invariant that must hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.harness import ExperimentScale


#: The scenario both backends run.
SCENARIO = "paper-lan"


def calibrate_backends(scale: "Optional[ExperimentScale]" = None,
                       **axis_overrides) -> list[dict]:
    """Measure live-vs-sim throughput and latency deltas for one scenario.

    Runs ``SCENARIO`` once on the discrete-event backend and once on the
    realtime asyncio/TCP backend, then reports one comparison row.
    Wall-clock sensitive: the live half runs in real time and must not share
    the machine with concurrent sweep workers.
    """
    from repro.scenarios import library
    from repro.scenarios.runner import run_scenario

    spec = library.get(SCENARIO)
    (sim,) = run_scenario(spec, scale, backend="sim", **axis_overrides)
    (live,) = run_scenario(spec, scale, backend="realtime", **axis_overrides)

    def _ratio(live_value: float, sim_value: float) -> Optional[float]:
        return round(live_value / sim_value, 3) if sim_value else None

    row = {
        "scenario": spec.name,
        "protocol": sim["protocol"],
        "n": sim["n"],
        "workers": sim["workers"],
        "lanes": sim["lanes"],
        "tps_sim": sim["tps"],
        "tps_live": live["tps"],
        "tps_ratio": _ratio(live["tps"], sim["tps"]),
        "p50_sim_ms": sim["latency_p50_ms"],
        "p50_live_ms": live["latency_p50_ms"],
        "p50_ratio": _ratio(live["latency_p50_ms"], sim["latency_p50_ms"]),
        "p95_sim_ms": sim["latency_p95_ms"],
        "p95_live_ms": live["latency_p95_ms"],
    }
    if "state_deliveries" in sim:
        row["deliveries_sim"] = sim["state_deliveries"]
        row["deliveries_live"] = live.get("state_deliveries")
    return [row]
