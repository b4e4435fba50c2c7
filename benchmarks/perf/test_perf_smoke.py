"""Smoke test of the benchmark harness: every workload, both run modes.

Each workload runs at about 1/20 of its benchmark length with one timed
repeat, traced fold included, so a broken metric name, a missing unit or a
layer that stops being folded fails tier-1 in a few seconds instead of
failing the benchmark driver in an hour.  Times are not asserted — only
that every declared metric is produced and the fold accounts for all of the
profile.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenarios.faultplan import FaultSchedule

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(workload):
    """The short copy of ``workload`` the smoke test runs."""
    if workload.name == "scale-n64":
        # Deliveries start after f+2 = 23 rounds at n=64 (0.35 sim-s, 1 s of
        # wall); a 10-node cluster keeps the shape at smoke-test cost.
        return replace(workload, spec=replace(
            workload.spec, n_nodes=10, duration=0.2, warmup=0.08))
    # The live cluster needs ~0.3 real seconds before its first delivery.
    factor = 0.16 if workload.live else 0.05
    spec = workload.spec
    phases = tuple(replace(phase, at=phase.at * factor,
                           until=phase.until * factor)
                   for phase in spec.faults.phases)
    return replace(workload, spec=replace(
        spec, duration=spec.duration * factor, warmup=spec.warmup * factor,
        faults=FaultSchedule(phases=phases)))


def test_spec_matches_the_harness():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_every_declared_metric_is_emitted(workload, monkeypatch):
    # Times are not asserted, so skip the 0.15 s host-speed loop per repeat.
    monkeypatch.setattr(hostspeed, "calibration_s",
                        lambda: hostspeed.REFERENCE_S)
    short = smoke(workload)
    end_to_end = measure.measure_end_to_end(short, seed=7, seconds=0,
                                            min_repeats=1)
    per_layer = measure.measure_per_layer(short, seed=7, seconds=0,
                                          min_repeats=1)
    # setup_s and peak_rss_mb belong to the process, not to a repeat.
    expected = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s",
                                                          "peak_rss_mb"}
    assert set(end_to_end["metrics"]) >= expected
    for name in expected:
        assert end_to_end["metrics"][name]["value"] > 0, name
    assert set(per_layer["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    values = {name: entry["value"]
              for name, entry in per_layer["metrics"].items()}
    shares = [values[f"{layer}.self_share"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert all(share >= -1e-9 for share in shares)
    assert values["host.profile_over_traced_wall"] == pytest.approx(1.0,
                                                                    abs=0.1)
    assert values["host.trace_overhead"] > 1.0
    assert values["ledger.deliveries"] > 0


def test_setup_probe_rss_and_host_speed():
    run.setup_only("lan-saturated")
    assert run.peak_rss_mb() > 1.0
    reading = hostspeed.calibration_s()
    assert hostspeed.speed_factor(reading, reading) > 0


def test_compare_marks_cells(tmp_path, capsys):
    def result(wall, tps):
        return {"workloads": {"lan-saturated": {
            "end_to_end": {
                "wall_s_per_sim_s": {"value": wall, "q1": wall * 0.99,
                                     "q3": wall * 1.01, "n": 5},
                "tps": {"value": tps, "q1": tps, "q3": tps, "n": 5}},
            "per_layer": {}}}}

    base, same, slow, moved = (tmp_path / name for name in
                               ("base.json", "same.json", "slow.json",
                                "moved.json"))
    base.write_text(json.dumps(result(1.0, 1000.0)))
    same.write_text(json.dumps(result(1.05, 1000.0)))
    slow.write_text(json.dumps(result(1.5, 1000.0)))
    moved.write_text(json.dumps(result(1.0, 999.0)))
    assert run.compare(str(base), str(same)) == 0
    assert run.compare(str(base), str(slow)) == 1
    assert "regressed" in capsys.readouterr().out
    # A modelled number that moved inside its bound needs a human verdict.
    assert run.compare(str(base), str(moved)) == 0
    assert "unresolved" in capsys.readouterr().out
