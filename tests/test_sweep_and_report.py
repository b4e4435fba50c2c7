"""Tests of the driver registry, the sweep engine and the report renderer."""

import inspect
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments import figures, registry
from repro.experiments.harness import ExperimentScale
from repro.experiments.parallel import run_planned
from repro.experiments.sweep import (
    append_record,
    config_id,
    grid_points,
    make_record,
    recorded_ids,
    results_path,
    run_point,
)
from repro.metrics import report
from tests import reference_registry
from tests.conftest import SCENARIO_ROW_LEAD

TINY = ExperimentScale(duration=0.3, warmup=0.05, workers_sweep=(1,),
                       cluster_sizes=(4,), batch_sizes=(10,), tx_sizes=(512,))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_covers_every_driver_in_figures():
    """Every ``figureNN_*``/``table1`` driver must be registered."""
    drivers = {name for name, obj in inspect.getmembers(figures, inspect.isfunction)
               if name.startswith("figure") or name.startswith("table")}
    registered_from_figures = {spec.point.__name__ for spec in registry.specs()
                               if spec.point.__module__ == figures.__name__}
    assert drivers == registered_from_figures
    # Non-figure drivers (the memory-footprint driver) ride the same registry.
    assert "memfootprint" in registry.names()


def test_registry_lookup_by_name():
    assert registry.get("fig07").point is figures.figure07_tps_single_dc
    with pytest.raises(KeyError):
        registry.get("figure07_tps_single_dc")  # a name, not a function


def test_registry_unknown_name_raises_with_suggestions():
    with pytest.raises(KeyError, match="fig07"):
        registry.get("nope")


def test_spec_metadata_is_usable():
    for spec in registry.specs():
        assert spec.title
        assert spec.description
        for axis in spec.grid:
            assert axis in registry.AXES


def test_spec_run_scale_axis_override():
    rows = registry.get("fig05").run(
        TINY, axis_values={"batch_size": (10, 100), "workers": (1, 2)})
    assert {(r["batch_size"], r["workers"]) for r in rows} == \
        {(10, 1), (10, 2), (100, 1), (100, 2)}


def test_spec_run_scalar_kwarg_axis_concatenates():
    # fig10's cluster size defaults to n = 100; two values -> two runs merged.
    scale = ExperimentScale(duration=0.2, warmup=0.05, workers_sweep=(1,),
                            batch_sizes=(100,), tx_sizes=(512,))
    rows = registry.get("fig10").run(scale, axis_values={"cluster_size": (4, 7)})
    assert {row["n"] for row in rows} == {4, 7}


@pytest.mark.parametrize("name", ["fig10", "fig11", "fig12"])
def test_run_and_sweep_plan_the_same_points(name, monkeypatch, tmp_path):
    """Two worker counts bound a figure's *default*, not what it is given:
    ``run`` and ``sweep`` plan the same points for explicit values, all of
    them.  A planning rule, so the point function is a stub."""
    planned: dict[str, list] = {}
    command = None

    def stub(scale, **fields):
        planned.setdefault(command, []).append(fields)
        return [{"n": fields["n_nodes"]}]

    spec = registry.get(name)
    monkeypatch.setitem(registry._REGISTRY, name,  # noqa: SLF001
                        replace(spec, point=stub))
    for command in ("run", "sweep"):
        assert main([command, name, "--cluster-sizes", "4",
                     "--batch-sizes", "1000", "--workers", "1,4,8",
                     "--scale", "quick",
                     "--results-dir", str(tmp_path / command)]) == 0
    assert planned["run"] == planned["sweep"] == [
        {"n_nodes": 4, "batch_size": 1000, "workers": workers}
        for workers in (1, 4, 8)]


#: Values an axis is overridden with in the differential: one, then two.
_OVERRIDES = {"cluster_size": (4, 7), "batch_size": (10, 100),
              "tx_size": (512, 1024), "workers": (1, 4)}


def _recording_run_cluster(calls: list):
    """A ``run_cluster`` stub: records what a call asked for and returns a
    canned result whose every number depends on the call's position, so a
    row paired with the wrong run differs."""
    def run_cluster(config, protocol="fireledger", duration=3.0, warmup=0.5,
                    seed=0, latency_model=None, faults=None,
                    latency_trim=0.0, **rest):
        assert not rest
        calls.append((config, protocol, duration, warmup, seed,
                      type(latency_model).__name__,
                      faults.phases if faults else None, latency_trim))
        k = len(calls)
        return SimpleNamespace(
            tps=1000.0 * k, bps=10.0 * k, fast_path_rounds=8 * k,
            fallback_rounds=k, failed_rounds=k + 1, recoveries=k,
            recoveries_per_second=k / 3,
            latency=SimpleNamespace(p50=k / 997, p95=k / 499, p99=k / 331,
                                    mean=k / 701),
            breakdown={"A->B": 1.0 * k, "B->C": 2.0, "signatures": 3 * k},
            network=SimpleNamespace(messages_of_kind=lambda kind: 5 * k))
    return run_cluster


@pytest.mark.parametrize("label", ["quick", "default", "full"])
@pytest.mark.parametrize("name", list(reference_registry.DRIVERS))
def test_one_grid_runs_what_the_binding_modes_ran(name, label, monkeypatch):
    """Differential against ``tests/reference_registry.py``: every figure and
    Table 1, at every preset, bare and with each axis overridden by one and
    by two values, makes the same ``run_cluster`` calls in the same order
    (configuration, protocol, window, seed, deployment, faults, trim) and
    returns ``==`` rows.  No simulation runs: ``run_cluster`` is a stub."""
    spec = registry.get(name)
    assert set(spec.grid) == set(reference_registry.driver_axes(
        reference_registry.DRIVERS[name]))
    scale = _preset(label, 7)
    cases = [{}] + [{axis: _OVERRIDES[axis][:count]} for axis in spec.grid
                    for count in (1, 2)]
    for axis_values in cases:
        shipped_calls, reference_calls = [], []
        monkeypatch.setattr(figures, "run_cluster",
                            _recording_run_cluster(shipped_calls))
        shipped = spec.run(scale, axis_values=axis_values)
        monkeypatch.setattr(figures, "run_cluster",
                            _recording_run_cluster(reference_calls))
        reference = reference_registry.run(name, scale, axis_values)
        assert shipped_calls == reference_calls, axis_values
        assert shipped == reference, axis_values
        assert [list(row) for row in shipped] == [list(row)
                                                  for row in reference]


def test_spec_run_rejects_unknown_axis():
    with pytest.raises(ValueError, match="no 'cluster_size' axis"):
        registry.get("fig05").run(TINY, axis_values={"cluster_size": (4,)})


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------
def test_grid_points_cartesian_and_stable_order():
    points = list(grid_points({"b": [1, 2], "a": [10]}))
    assert points == [{"a": 10, "b": 1}, {"a": 10, "b": 2}]
    assert list(grid_points({})) == [{}]


def test_config_id_depends_on_scale_and_params():
    base = config_id("fig05", TINY, {"batch_size": 10})
    assert base == config_id("fig05", TINY, {"batch_size": 10})
    assert base != config_id("fig05", TINY, {"batch_size": 100})
    assert base != config_id("fig06", TINY, {"batch_size": 10})
    assert base != config_id("fig05", ExperimentScale.quick(), {"batch_size": 10})


def test_jsonl_round_trip(tmp_path):
    path = results_path(tmp_path, "fig05")
    spec = registry.get("fig05")
    record = make_record(spec, TINY, "tiny", {"batch_size": 10},
                         [{"sps": 1.0, "workers": 1}], elapsed_s=0.1234)
    append_record(path, record)
    append_record(path, make_record(spec, TINY, "tiny", {"batch_size": 100},
                                    [{"sps": 2.0, "workers": 1}]))
    loaded = [json.loads(line) for line in path.read_text().splitlines()]
    assert loaded[0]["config_id"] == config_id("fig05", TINY, {"batch_size": 10})
    assert loaded[0]["rows"] == [{"sps": 1.0, "workers": 1}]
    assert loaded[0]["elapsed_s"] == 0.12
    assert recorded_ids(path) == {r["config_id"] for r in loaded}
    # Column order of the rows survives the disk round-trip.
    assert list(loaded[0]["rows"][0]) == ["sps", "workers"]


def test_recorded_ids_tolerates_truncated_tail(tmp_path):
    path = results_path(tmp_path, "fig05")
    append_record(path, make_record(registry.get("fig05"), TINY, "tiny",
                                    {}, [{"sps": 1.0}]))
    with path.open("a") as handle:
        handle.write('{"experiment": "fig05", "config_id": "abc')  # crash mid-write
    assert len(recorded_ids(path)) == 1


# ---------------------------------------------------------------------------
# Report rendering (canned result set — no simulation)
# ---------------------------------------------------------------------------
def _canned_results_dir(tmp_path):
    results = tmp_path / "results"
    spec = registry.get("fig10")
    for n, tps in ((4, 1000.0), (7, 800.0)):
        append_record(results_path(results, "fig10"),
                      make_record(spec, TINY, "tiny", {"cluster_size": n},
                                  [{"n": n, "tps": tps,
                                    "expectation": "same note"}]))
    append_record(results_path(results, "mystery"),
                  {"experiment": "mystery", "config_id": "x", "scale": "tiny",
                   "seed": 7, "params": {}, "rows": [{"value": 1}]})
    return results


def test_markdown_table_shape():
    table = report.markdown_table([{"a": 1, "b": 2.5}, {"a": 10, "b": None}])
    lines = table.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert lines[2] == "| 1 | 2.5 |"
    assert lines[3] == "| 10 | - |"
    assert report.markdown_table([]) == "*(no rows)*"


def test_report_merges_params_and_factors_out_expectation(tmp_path):
    results = _canned_results_dir(tmp_path)
    text = report.render_experiments_md(report.load_results(results))
    assert "## Figure 10 — scalability to large clusters" in text
    # The rows' own 'n' column already shows the swept cluster size, so the
    # grid param is not repeated as a duplicate leading column.
    assert "| n | tps |" in text
    assert "cluster_size" not in text
    assert "Paper expectation: same note." in text
    assert "| same note |" not in text      # ...and is not repeated per row
    assert "## mystery" in text             # unknown experiments still render


def test_report_is_deterministic_and_order_independent(tmp_path):
    results = _canned_results_dir(tmp_path)
    first = report.render_experiments_md(report.load_results(results))
    second = report.render_experiments_md(report.load_results(results))
    assert first == second
    # Rewriting the same records in reverse order changes nothing.
    path = results_path(results, "fig10")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(reversed(lines)) + "\n")
    assert report.render_experiments_md(report.load_results(results)) == first


def test_markdown_table_renders_non_finite_floats():
    # fig16/fig17 record inf speedups when a baseline delivers zero tps.
    table = report.markdown_table([{"speedup": float("inf"),
                                    "ratio": float("nan")}])
    assert "| inf | nan |" in table


def test_report_orders_grid_params_numerically(tmp_path):
    results = tmp_path / "results"
    spec = registry.get("fig10")
    for n in (10, 4, 7):
        append_record(results_path(results, "fig10"),
                      make_record(spec, TINY, "tiny", {"cluster_size": n},
                                  [{"n": n, "tps": 1.0}]))
    rows = report.merged_rows(report.load_results(results)["fig10"])
    assert [row["n"] for row in rows] == [4, 7, 10]


def test_report_dedups_forced_reruns_keeping_last(tmp_path):
    results = tmp_path / "results"
    spec = registry.get("fig05")
    path = results_path(results, "fig05")
    append_record(path, make_record(spec, TINY, "tiny", {}, [{"sps": 1.0}]))
    append_record(path, make_record(spec, TINY, "tiny", {}, [{"sps": 2.0}]))
    loaded = report.load_results(results)
    assert len(loaded["fig05"]) == 1
    assert loaded["fig05"][0]["rows"] == [{"sps": 2.0}]


def test_report_csv_round_trip(tmp_path):
    results = _canned_results_dir(tmp_path)
    loaded = report.load_results(results)
    out = tmp_path / "fig10.csv"
    report.write_csv(loaded["fig10"], out)
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "n"
    assert len(lines) == 3


def test_backend_sim_axis_canonicalizes_out_of_config_id():
    """``--backend sim`` is the default spelled out: it must hash like the
    bare run, while ``--backend realtime`` is a distinct configuration."""
    spec = registry.get("scenario:paper-lan")
    scale = ExperimentScale()
    bare = config_id(spec.name, scale, {}, defaults=spec.axis_defaults)
    explicit = config_id(spec.name, scale, {"backend": "sim"},
                         defaults=spec.axis_defaults)
    live = config_id(spec.name, scale, {"backend": "realtime"},
                     defaults=spec.axis_defaults)
    assert bare == explicit
    assert live != bare


def test_backend_sim_sweep_resumes_against_committed_records(tmp_path):
    """The bare run's record is skipped, not re-run, by a sweep that spells
    out ``--backend sim``."""
    spec = registry.get("scenario:paper-lan")
    scale = ExperimentScale()
    # The bare record: no backend param anywhere in its payload.
    append_record(results_path(tmp_path, spec.name),
                  make_record(spec, scale, "default", {}, [{"tps": 1.0}]))
    (planned,) = run_planned([(spec, [scale], {"backend": ("sim",)})],
                             tmp_path, "default")
    assert planned == [None]  # planned once, already recorded


def test_comparison_renders_one_line_per_backend():
    """A protocol x backend record set: the realtime pair is a different
    configuration from the simulated pair, not a duplicate to drop."""
    records = [
        {"config_id": f"{protocol}-{backend}", "scale": "default", "seed": 7,
         "params": {"protocol": protocol, "backend": backend},
         "rows": [{"scenario": "paper-lan", "protocol": protocol, "n": 4,
                   "backend": backend, "tps": tps, "latency_p50_ms": 1.0}]}
        for backend, protocol, tps in (("sim", "fireledger", 200000.0),
                                       ("sim", "hotstuff", 40000.0),
                                       ("realtime", "fireledger", 9000.0),
                                       ("realtime", "hotstuff", 3000.0))]
    comparison = report.protocol_comparison_rows(report.merged_rows(records))
    assert [(line["backend"], line["fireledger_over_hotstuff"])
            for line in comparison] == [("sim", 5.0), ("realtime", 3.0)]


# (experiment, scale preset, seed, params) -> config_id, recorded from commit
# 2d4b15f (before the axis table): figure, scenario, seeded-sweep and
# default-canonicalised spellings.  Ids name committed records; they must
# never move.
CONFIG_IDS = [
    ("fig05", "quick", 7, {}, "a779cc3375425f27"),
    ("fig07", "default", 7, {}, "3e5898341ed380c0"),
    ("table1", "full", 7, {}, "c1af322a788e72ac"),
    ("fig10", "quick", 7, {"cluster_size": 40, "workers": 1},
     "16b623bff9d12e32"),
    ("fig10", "default", 7, {"cluster_size": [4, 7]}, "ffe31befe0b0a784"),
    ("fig16", "default", 3, {"tx_size": 512}, "a925a889117b860c"),
    ("fig05", "quick", 7, {"batch_size": 10, "seed": 3}, "8f379f2628f7d3d4"),
    ("fig05", "quick", 3, {"batch_size": 10}, "8f379f2628f7d3d4"),
    ("scenario:paper-lan", "default", 7, {}, "017884c53686c3d5"),
    ("scenario:paper-lan", "default", 7, {"protocol": "fireledger"},
     "017884c53686c3d5"),
    ("scenario:paper-lan", "default", 7,
     {"backend": "sim", "cluster_size": 4, "workers": 4, "lanes": 1,
      "adversary": "equivocate"}, "017884c53686c3d5"),
    ("scenario:paper-lan", "default", 7, {"protocol": "hotstuff"},
     "5579257c1d80420f"),
    ("scenario:paper-lan", "default", 7, {"backend": "realtime"},
     "33e982bb4e1ecd7a"),
    ("scenario:hotspot-lanes", "default", 7, {"lanes": 4},
     "cb6b4d17a821d0dc"),
    ("scenario:hotspot-lanes", "default", 7, {"lanes": 1},
     "6203914265332426"),
    ("scenario:adversary-gauntlet", "default", 7,
     {"adversary": "churn", "protocol": "bftsmart"}, "21bbd66967757122"),
    ("scenario:adversary-gauntlet", "default", 7,
     {"adversary": "equivocate", "protocol": "fireledger", "seed": 11},
     "ac83619038369112"),
    ("memfootprint", "default", 7, {"cluster_size": 4}, "62f6d90bd2484fd5"),
    ("calibrate", "default", 7, {"lanes": 2, "protocol": "hotstuff"},
     "64638346088e345b"),
]


def _preset(label, seed):
    from dataclasses import replace

    from repro.cli import SCALES

    return replace(SCALES[label](), seed=seed)


@pytest.mark.parametrize("name,label,seed,params,expected", CONFIG_IDS)
def test_config_ids_do_not_move(name, label, seed, params, expected):
    spec = registry.get(name)
    # A seeded sweep at 2d4b15f spelled its seed as a grid param; the planner
    # now sets it on the scale, which is the payload that spelling hashed.
    params = dict(params)
    seed = params.pop("seed", seed)
    assert config_id(name, _preset(label, seed), params,
                     defaults=spec.axis_defaults) == expected


RESULTS = Path(__file__).resolve().parents[1] / "results"


def _no_configuration_twice(results):
    """No rendered scenario section has two rows equal on (scenario, every
    axis column, workload, seed): one configuration, one line."""
    identity = sorted(report._identity_columns())  # noqa: SLF001
    for name, records in results.items():
        if not name.startswith("scenario:"):
            continue
        seen = set()
        for record in records:
            # merged_rows only shows a seed column when records disagree.
            for row in report.merged_rows([record]):
                key = (record["seed"],
                       *(row.get(column) for column in identity))
                assert key not in seen, f"{name} shows {key} twice"
                seen.add(key)


def test_run_and_sweep_record_one_grain(tmp_path, capsys):
    """``run X --workers 1,2`` writes what ``sweep X --workers 1,2`` writes:
    one record per grid point, scalar params, the same config_ids — so the
    sweep resumes against the run and nothing renders twice."""
    flags = ["scenario:paper-lan", "--workers", "1,2",
             "--results-dir", str(tmp_path)]
    assert main(["run", *flags]) == 0
    assert "(2 rows" in capsys.readouterr().out  # printed per driver
    assert main(["sweep", *flags]) == 0
    assert "0 ran, 2 skipped" in capsys.readouterr().out
    records = [json.loads(line) for line in results_path(
        tmp_path, "scenario:paper-lan").read_text().splitlines()]
    assert [record["params"] for record in records] == [{"workers": 1},
                                                        {"workers": 2}]
    assert [len(record["rows"]) for record in records] == [1, 1]
    results = report.load_results(tmp_path)
    _no_configuration_twice(results)
    assert "*2 configuration(s), 2 row(s)" in report.render_experiments_md(results)
    # --force is the same plan with an empty resume set.
    assert main(["run", *flags, "--force", "--workers", "2"]) == 0
    assert len(results_path(tmp_path, "scenario:paper-lan")
               .read_text().splitlines()) == 3


def test_a_scenario_under_another_preset_is_already_recorded(
        monkeypatch, tmp_path, capsys):
    """A scenario reads only the seed off the scale, so its run under
    ``--scale quick`` is the configuration the default-preset run recorded:
    one record, not two.  An identity rule, so the point is a stub."""
    name = "scenario:paper-lan"
    ran = []
    monkeypatch.setitem(registry._REGISTRY, name,  # noqa: SLF001
                        replace(registry.get(name),
                                point=lambda scale, **fields: ran.append(
                                    scale.seed) or [{"tps": 1}]))
    flags = [name, "--results-dir", str(tmp_path)]
    assert main(["run", *flags]) == 0
    assert main(["run", *flags, "--scale", "quick"]) == 0
    assert "already recorded" in capsys.readouterr().out
    assert ran == [7]
    assert len(results_path(tmp_path, name).read_text().splitlines()) == 1


def test_committed_results_are_one_record_per_configuration():
    """``results/`` is one run's output, not an append history: one line per
    config_id per file, scalar params, every scenario row in the one shape
    and no configuration rendered twice."""
    for path in sorted(RESULTS.glob("*.jsonl")):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        ids = [record["config_id"] for record in records]
        assert len(ids) == len(set(ids)), f"{path.name} re-records a config_id"
        for record in records:
            assert not any(isinstance(value, (list, dict))
                           for value in record["params"].values()), path.name
            if record["experiment"].startswith("scenario:"):
                for row in record["rows"]:
                    named = [key for key in row if key != "adversary"]
                    assert (tuple(named[:len(SCENARIO_ROW_LEAD)])
                            == SCENARIO_ROW_LEAD), path.name
    _no_configuration_twice(report.load_results(RESULTS))


def test_every_committed_record_id_is_recomputed():
    """Resume works against the tree's own ``results/``: every committed
    record's id is what its (experiment, scale, seed, params) hashes to.
    59 = the 26 drivers of ``run --all`` + the 33 sweep points of
    ``results/rerecord.sh`` that are not a driver's bare configuration."""
    results = report.load_results(RESULTS)
    assert sum(map(len, results.values())) >= 59
    for name, records in results.items():
        spec = registry.get(name)
        for record in records:
            assert config_id(name, _preset(record["scale"], record["seed"]),
                             record["params"],
                             defaults=spec.axis_defaults) == record["config_id"]


#: The cheap committed records tier-1 regenerates (the ``results-fresh`` CI
#: job regenerates all of them): (experiment, params).
REGENERATED = [
    ("table1", {}), ("fig05", {}), ("fig13", {}),
    ("scenario:paper-wan", {}), ("scenario:paper-lan", {}),
    ("scenario:paper-lan", {"protocol": "hotstuff"}),
    ("scenario:paper-lan", {"protocol": "bftsmart"}),
    ("scenario:rolling-crash", {}), ("scenario:byzantine-minority", {}),
]


@pytest.mark.parametrize("name,params", REGENERATED, ids=[
    "-".join((name, *map(str, params.values()))) for name, params in REGENERATED])
def test_committed_records_regenerate(name, params):
    """Neutrality is proved against the tree: a committed record's
    ``(scale, seed, params)`` regenerates, through the path ``run`` and
    ``sweep`` take, to rows ``==`` the committed ones, key order included."""
    (committed,) = [record for record in report.load_results(RESULTS)[name]
                    if record["params"] == params]
    fresh = run_point(registry.get(name),
                      _preset(committed["scale"], committed["seed"]),
                      params, params, committed["scale"])
    assert fresh["config_id"] == committed["config_id"]
    rows = json.loads(json.dumps(fresh["rows"], default=str))  # as on disk
    assert rows == committed["rows"]
    assert [list(row) for row in rows] == [list(row)
                                           for row in committed["rows"]]


def test_committed_report_is_what_the_committed_results_render():
    """EXPERIMENTS.md is a pure function of ``results/*.jsonl``: every
    section (head-to-head comparison, lanes, adversary strategies, ...)
    renders, byte for byte, from the records in the tree."""
    rendered = report.render_experiments_md(report.load_results(RESULTS))
    assert rendered == (RESULTS.parent / "EXPERIMENTS.md").read_text()
    for heading in ("Head-to-head protocol comparison", "| lane_skew |",
                    "## Adversary strategies", "## Fairness & execution",
                    # identity columns lead, though only later rows have one
                    "| workload | adversary | proposer_bias |"):
        assert heading in rendered
