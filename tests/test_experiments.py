"""Tests of the experiment drivers and their harness."""

import pytest

from repro.experiments import ExperimentScale, format_rows, registry

TINY = ExperimentScale(duration=0.3, warmup=0.05, workers_sweep=(1,),
                       cluster_sizes=(4,), batch_sizes=(10,), tx_sizes=(512,))


def test_experiment_scale_presets():
    quick = ExperimentScale.quick()
    full = ExperimentScale.full()
    assert quick.duration < full.duration
    assert set(quick.cluster_sizes) <= set(full.cluster_sizes)


def test_figure05_rows_follow_cost_model_shape():
    rows = registry.get("fig05").run(
        ExperimentScale(), axis_values={"batch_size": (10, 1000),
                                        "tx_size": (512,),
                                        "workers": (1, 4, 8)})
    by_key = {(r["batch_size"], r["workers"]): r["sps"] for r in rows}
    # More workers help up to the core count, bigger blocks sign slower.
    assert by_key[(10, 4)] > by_key[(10, 1)]
    assert by_key[(10, 4)] == pytest.approx(by_key[(10, 8)])
    assert by_key[(10, 4)] > by_key[(1000, 4)]


def test_figure06_produces_positive_bps():
    rows = registry.get("fig06").run(TINY)
    assert rows
    assert all(row["bps"] > 0 for row in rows)


def test_table1_reports_all_three_modes():
    rows = registry.get("table1").run(TINY)
    assert [row["mode"] for row in rows] == ["fault-free", "omission/crash", "byzantine"]
    fault_free = rows[0]
    # One vote broadcast per node per round (n-1 wire messages plus loopback)
    # and roughly a single proposer signature per block.
    assert fault_free["control_msgs_per_node_per_round"] <= 5.0
    assert fault_free["signatures_per_block"] <= 3.0
    assert rows[2]["recoveries"] >= 0


def test_figure12_reports_recoveries():
    rows = registry.get("fig12").run(TINY)
    assert rows
    assert all("recoveries_per_sec" in row for row in rows)


def test_figure16_compares_flo_and_hotstuff():
    rows = registry.get("fig16").run(
        ExperimentScale(duration=0.4, warmup=0.1, workers_sweep=(4,)),
        axis_values={"cluster_size": (4,), "tx_size": (512,)})
    assert len(rows) == 1
    row = rows[0]
    assert row["flo_tps"] > 0
    assert row["hotstuff_tps"] > 0


def test_format_rows_renders_table():
    text = format_rows([{"a": 1, "b": 2.5}, {"a": 10, "b": None}])
    assert "a" in text and "b" in text
    assert "10" in text
    assert format_rows([]) == "(no rows)"
