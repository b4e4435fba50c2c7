"""Tests of the ``python -m repro`` command line (parsing and commands).

Everything runs through :func:`repro.cli.main` with an explicit argv, using
``fig05`` (the closed-form cost-model driver — no cluster simulation) so the
whole file stays fast.
"""

import dataclasses
import json

import pytest

from repro.cli import _int_list, build_parser, main
from repro.experiments import registry


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
def test_int_list_parses_commas():
    assert _int_list("4,7,10") == (4, 7, 10)
    assert _int_list("8") == (8,)


def test_int_list_rejects_junk():
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _int_list("4,seven")
    with pytest.raises(argparse.ArgumentTypeError):
        _int_list(",")


def test_run_parser_collects_scale_and_axes():
    args = build_parser().parse_args(
        ["run", "fig07", "--scale", "quick", "--seed", "3",
         "--cluster-sizes", "4,7", "--batch-sizes", "100",
         "--tx-sizes", "512,1024", "--workers", "2"])
    assert args.command == "run"
    assert args.experiment == "fig07"
    assert args.scale == "quick"
    assert args.seed == (3,)
    assert args.cluster_sizes == (4, 7)
    assert args.batch_sizes == (100,)
    assert args.tx_sizes == (512, 1024)
    assert args.workers == (2,)


def test_axis_assignment_parses_ints_and_names():
    from repro.cli import _axis_assignment
    assert _axis_assignment("protocol=fireledger,hotstuff") == (
        "protocol", ("fireledger", "hotstuff"))
    assert _axis_assignment("cluster-size=4,7") == ("cluster_size", (4, 7))
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _axis_assignment("protocol")           # no '='
    with pytest.raises(argparse.ArgumentTypeError):
        _axis_assignment("frobnicate=1")       # unknown axis
    with pytest.raises(argparse.ArgumentTypeError):
        _axis_assignment("protocol=")          # no values


def test_run_scenario_with_protocol_override(tmp_path, capsys):
    rc = main(["run", "scenario:paper-lan", "--no-record",
               "--protocol", "bftsmart", "--results-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bftsmart" in out


def test_default_protocol_spelling_resumes_against_bare_run(tmp_path, capsys):
    """`--axis protocol=<spec default>` hashes like the bare run, so the two
    spellings share one record instead of double-recording."""
    assert main(["run", "scenario:paper-lan",
                 "--results-dir", str(tmp_path)]) == 0
    assert main(["sweep", "scenario:paper-lan",
                 "--axis", "protocol=fireledger",
                 "--results-dir", str(tmp_path)]) == 0
    assert "0 ran, 1 skipped" in capsys.readouterr().out
    lines = (tmp_path / "scenario--paper-lan.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_sweep_protocol_axis_resumes(tmp_path, capsys):
    argv = ["sweep", "scenario:paper-lan",
            "--axis", "protocol=fireledger,bftsmart",
            "--results-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "2 ran, 0 skipped" in capsys.readouterr().out
    assert main(argv) == 0
    assert "0 ran, 2 skipped" in capsys.readouterr().out
    records = [json.loads(line) for line in
               (tmp_path / "scenario--paper-lan.jsonl").read_text().splitlines()]
    assert {r["params"]["protocol"] for r in records} == {"fireledger", "bftsmart"}


def test_sweep_parser_accepts_seeds_axis():
    args = build_parser().parse_args(
        ["sweep", "fig10", "--cluster-sizes", "4,7", "--seed", "1,2"])
    assert args.command == "sweep"
    assert args.seed == (1, 2)
    assert args.force is False


def test_report_parser_defaults():
    args = build_parser().parse_args(["report"])
    assert args.results_dir == "results"
    assert args.output == "EXPERIMENTS.md"


# ---------------------------------------------------------------------------
# Commands end to end (cheap drivers only)
# ---------------------------------------------------------------------------
def test_list_shows_every_registered_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert name in out
    assert "adversary strategies" in out and "targeted-equivocate" in out


def test_run_prints_rows_and_records(tmp_path, capsys):
    rc = main(["run", "fig05", "--scale", "quick",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "sps" in out
    lines = (tmp_path / "fig05.jsonl").read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["experiment"] == "fig05"
    assert record["scale"] == "quick"
    assert record["rows"]


def test_run_skips_already_recorded_configuration(tmp_path, capsys):
    argv = ["run", "fig05", "--scale", "quick", "--results-dir", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv) == 0
    assert "already recorded" in capsys.readouterr().out
    assert len((tmp_path / "fig05.jsonl").read_text().splitlines()) == 1
    assert main(argv + ["--force"]) == 0
    assert len((tmp_path / "fig05.jsonl").read_text().splitlines()) == 2


def test_run_resumes_against_an_orphan_shard(tmp_path, capsys):
    """An interrupted ``--jobs`` run leaves finished records in a shard;
    ``run`` folds them in before planning instead of re-running them."""
    from repro.experiments.harness import ExperimentScale
    from repro.experiments.parallel import shard_dir
    from repro.experiments.sweep import make_record

    planted = make_record(registry.get("fig05"), ExperimentScale.quick(),
                          "quick", {}, [{"sps": -1.0}])
    shard_dir(tmp_path).mkdir()
    (shard_dir(tmp_path) / "fig05.123.jsonl").write_text(
        json.dumps({"idx": 0, "record": planted}) + "\n")
    assert main(["run", "fig05", "--scale", "quick",
                 "--results-dir", str(tmp_path)]) == 0
    assert "already recorded" in capsys.readouterr().out
    lines = (tmp_path / "fig05.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [planted]


def test_seed_list_sweep_resumes_against_a_single_seed_run(tmp_path, capsys):
    """``--seed 3,4`` plans one record per seed, each the configuration a
    single-seed spelling names: the run of seed 4 finds it recorded."""
    flags = ["fig05", "--batch-sizes", "10", "--results-dir", str(tmp_path)]
    assert main(["sweep", *flags, "--seed", "3,4"]) == 0
    assert "2 ran, 0 skipped" in capsys.readouterr().out
    assert main(["run", *flags, "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "already recorded" in out and "ran  " not in out  # 0 ran
    records = [json.loads(line) for line
               in (tmp_path / "fig05.jsonl").read_text().splitlines()]
    assert [(r["seed"], r["params"]) for r in records] == [
        (3, {"batch_size": 10}), (4, {"batch_size": 10})]


def test_run_no_record_leaves_store_untouched(tmp_path, capsys):
    rc = main(["run", "fig05", "--scale", "quick", "--no-record",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    assert not (tmp_path / "fig05.jsonl").exists()


def test_run_applies_axis_overrides(tmp_path, capsys):
    rc = main(["run", "fig05", "--scale", "quick", "--no-record",
               "--batch-sizes", "10", "--tx-sizes", "512",
               "--workers", "1", "--results-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(1 rows" in out  # 1 batch x 1 tx size x 1 worker count


def test_run_unknown_experiment_fails(tmp_path, capsys):
    rc = main(["run", "fig99", "--results-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_unsupported_axis_fails(tmp_path, capsys):
    # fig05 is a single-VM cost model: it has no cluster_size axis.
    rc = main(["run", "fig05", "--cluster-sizes", "4", "--no-record",
               "--results-dir", str(tmp_path)])
    assert rc == 2
    assert "no 'cluster_size' axis" in capsys.readouterr().err


def test_run_single_value_override_matches_sweep_point(tmp_path, capsys):
    """A one-point `run` and a one-point `sweep` share a config_id."""
    assert main(["run", "fig05", "--scale", "quick", "--batch-sizes", "10",
                 "--results-dir", str(tmp_path)]) == 0
    assert main(["sweep", "fig05", "--scale", "quick", "--batch-sizes", "10",
                 "--results-dir", str(tmp_path)]) == 0
    assert "0 ran, 1 skipped" in capsys.readouterr().out


def test_run_all_skips_inapplicable_axes(monkeypatch, tmp_path, capsys):
    """``run --all`` hands every driver only the axis overrides it has:
    table1 has no batch_size axis and must run at its fixed configuration,
    not abort the batch.  An argument-routing rule, so the drivers are stubs
    recording what reached them."""
    calls: dict[str, list] = {}
    for spec in registry.specs():
        def stub(scale, _name=spec.name, **kwargs):
            calls.setdefault(_name, []).append((scale, kwargs))
            return [{"driver": _name}]
        monkeypatch.setitem(registry._REGISTRY, spec.name,  # noqa: SLF001
                            dataclasses.replace(spec, func=stub,
                                                axes=spec.axes))
    rc = main(["run", "--all", "--scale", "quick", "--no-record",
               "--duration", "0.2", "--warmup", "0.05",
               "--cluster-sizes", "4", "--batch-sizes", "10",
               "--tx-sizes", "512", "--workers", "1",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Figure 17" in out
    # Every registered driver ran, once.
    assert sorted(calls) == sorted(registry.names())
    assert all(len(received) == 1 for received in calls.values())
    (table_scale, table_kwargs), = calls["table1"]
    assert table_kwargs == {} and table_scale.batch_sizes != (10,)
    (fig07_scale, fig07_kwargs), = calls["fig07"]
    assert fig07_kwargs == {}
    assert (fig07_scale.cluster_sizes, fig07_scale.batch_sizes,
            fig07_scale.tx_sizes, fig07_scale.workers_sweep) == (
                (4,), (10,), (512,), (1,))
    (_, scenario_kwargs), = calls["scenario:paper-lan"]
    assert scenario_kwargs == {"n_nodes": 4, "workers": 1}


def test_run_requires_exactly_one_target(tmp_path, capsys):
    assert main(["run", "--results-dir", str(tmp_path)]) == 2
    assert main(["run", "fig05", "--all", "--results-dir", str(tmp_path)]) == 2


def test_sweep_requires_an_axis(tmp_path, capsys):
    rc = main(["sweep", "fig05", "--results-dir", str(tmp_path)])
    assert rc == 2
    assert "at least one grid axis" in capsys.readouterr().err


def test_sweep_runs_grid_and_resumes(tmp_path, capsys):
    argv = ["sweep", "fig05", "--scale", "quick",
            "--batch-sizes", "10,100", "--workers", "1",
            "--results-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "2 ran, 0 skipped" in capsys.readouterr().out
    assert main(argv) == 0
    assert "0 ran, 2 skipped" in capsys.readouterr().out
    records = [json.loads(line) for line
               in (tmp_path / "fig05.jsonl").read_text().splitlines()]
    assert {r["params"]["batch_size"] for r in records} == {10, 100}


def test_sweep_jobs_merges_without_duplicates_and_resumes(tmp_path, capsys):
    argv = ["sweep", "fig05", "--scale", "quick",
            "--batch-sizes", "10,100", "--workers", "1,2",
            "--jobs", "2", "--results-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "4 ran, 0 skipped" in capsys.readouterr().out
    records = [json.loads(line) for line
               in (tmp_path / "fig05.jsonl").read_text().splitlines()]
    ids = [r["config_id"] for r in records]
    assert len(ids) == len(set(ids)) == 4
    # A serial sweep over the same grid resumes from the parallel records.
    serial = ["sweep", "fig05", "--scale", "quick",
              "--batch-sizes", "10,100", "--workers", "1,2",
              "--results-dir", str(tmp_path)]
    assert main(serial) == 0
    assert "0 ran, 4 skipped" in capsys.readouterr().out


def test_sweep_wall_clock_experiment_refuses_worker_pool(tmp_path, capsys,
                                                         monkeypatch):
    """memfootprint rows are host measurements (peak memory): pooling them
    would record contention-inflated numbers, so --jobs falls back to
    serial."""
    from repro.experiments import memory

    monkeypatch.setattr(memory, "DURATIONS", (0.2,))  # keep the run short
    rc = main(["sweep", "memfootprint", "--cluster-sizes", "4", "--jobs", "4",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "running serially despite --jobs 4" in out
    assert "1 ran, 0 skipped" in out


def test_run_single_experiment_ignores_jobs(tmp_path, capsys):
    rc = main(["run", "fig05", "--scale", "quick", "--jobs", "4",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    assert "recorded ->" in capsys.readouterr().out


def test_report_writes_markdown_and_csv(tmp_path, capsys):
    results = tmp_path / "results"
    assert main(["run", "fig05", "--scale", "quick",
                 "--results-dir", str(results)]) == 0
    output = tmp_path / "EXPERIMENTS.md"
    csv_dir = tmp_path / "csv"
    rc = main(["report", "--results-dir", str(results),
               "--output", str(output), "--csv-dir", str(csv_dir)])
    assert rc == 0
    text = output.read_text()
    assert "# FireLedger — Experiment Results" in text
    assert "Figure 5" in text
    assert "| batch_size |" in text
    csv_text = (csv_dir / "fig05.csv").read_text()
    assert csv_text.splitlines()[0].startswith("batch_size,")


def test_report_stdout_mode(tmp_path, capsys):
    rc = main(["report", "--results-dir", str(tmp_path), "--stdout"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no results recorded yet" in out


# ---------------------------------------------------------------------------
# One declaration per axis: the CLI is derived from registry.AXES
# ---------------------------------------------------------------------------
_AXIS_FLAGS = [("--cluster-sizes", "N,N"), ("--batch-sizes", "B,B"),
               ("--tx-sizes", "S,S"), ("--workers", "W,W"),
               ("--protocol", "P,P"), ("--lanes", "M,M"),
               ("--backend", "B,B"), ("--adversary", "A,A"),
               ("--axis", "NAME=V,V")]
_SCALE_FLAGS = [("--scale", None), ("--seed", "S,S"), ("--duration", None),
                ("--warmup", None)]
_STORE_FLAGS = [("--jobs", "N"), ("--results-dir", None), ("--force", None)]
#: Every subcommand's (flag, metavar) list, written out by hand: the axis
#: flags are generated from ``registry.AXES``, and this is what pins them.
FLAG_SET = {
    "run": [("experiment", None), ("--all", None), *_SCALE_FLAGS,
            *_AXIS_FLAGS, *_STORE_FLAGS, ("--no-record", None),
            ("--markdown", None)],
    "sweep": [("experiment", None), *_SCALE_FLAGS, *_AXIS_FLAGS,
              *_STORE_FLAGS],
    "report": [("--results-dir", None), ("--output", None),
               ("--csv-dir", None), ("--stdout", None)],
    "list": [],
}


def _flag_set(parser):
    import argparse

    sub = next(action for action in parser._actions  # noqa: SLF001
               if isinstance(action, argparse._SubParsersAction))  # noqa: SLF001
    return {name: [(action.option_strings[0] if action.option_strings
                    else action.dest, action.metavar)
                   for action in command._actions  # noqa: SLF001
                   if not isinstance(action, argparse._HelpAction)]  # noqa: SLF001
            for name, command in sub.choices.items()}


def test_parser_exposes_exactly_the_recorded_flag_set():
    assert _flag_set(build_parser()) == FLAG_SET


def test_one_axis_declaration_reaches_cli_registry_and_report(
        tmp_path, capsys, monkeypatch):
    """A throw-away axis added to ``registry.AXES`` — nothing else edited —
    gets its flag, its ``--axis`` spelling, its ``list`` column entry, a
    default-canonicalised ``config_id`` and the report's echo suppression."""
    from repro.experiments import sweep
    from repro.experiments.harness import ExperimentScale
    from repro.metrics import report

    # Bound to an existing ScenarioSpec field; echoed under the 'batch' column.
    monkeypatch.setitem(registry.AXES, "block_batch", registry.Axis(
        "block_batch", "--block-batches", "K,K", "throw-away test axis",
        keyword="batch_size", columns=("batch",)))
    monkeypatch.setattr(registry, "_REGISTRY", {})
    monkeypatch.setattr(registry, "_BY_FUNC_NAME", {})
    registry._register_all()  # noqa: SLF001 - re-derive from the patched table

    args = build_parser().parse_args(
        ["sweep", "scenario:paper-lan", "--block-batches", "10,20"])
    assert args.block_batches == (10, 20)
    args = build_parser().parse_args(
        ["sweep", "scenario:paper-lan", "--axis", "block-batch=10"])
    assert args.axis == [("block_batch", (10,))]

    assert main(["list"]) == 0
    listing = capsys.readouterr().out
    assert "adversary, backend, block_batch, cluster_size" in listing

    spec = registry.get("scenario:paper-lan")
    assert "block_batch" not in registry.get("fig07").axes
    scale = ExperimentScale()
    bare = sweep.config_id(spec.name, scale, {}, defaults=spec.axis_defaults)
    assert sweep.config_id(spec.name, scale, {"block_batch": 1000},
                           defaults=spec.axis_defaults) == bare
    assert sweep.config_id(spec.name, scale, {"block_batch": 10},
                           defaults=spec.axis_defaults) != bare

    assert main(["sweep", "scenario:paper-lan", "--block-batches", "10",
                 "--results-dir", str(tmp_path)]) == 0
    (record,) = report.load_results(tmp_path)[spec.name]
    assert record["params"] == {"block_batch": 10}
    (row,) = report.merged_rows([record])
    assert row["batch"] == 10 and "block_batch" not in row
