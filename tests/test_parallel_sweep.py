"""Tests of the one sweep executor and its shard-merge protocol."""

import json
from dataclasses import replace

import pytest

from repro.experiments import registry
from repro.experiments.harness import ExperimentScale
from repro.experiments.parallel import merge_shards, run_planned, shard_dir
from repro.experiments.sweep import (
    append_record,
    config_id,
    make_record,
    recorded_ids,
    results_path,
)

TINY = ExperimentScale(duration=0.3, warmup=0.05, workers_sweep=(1,),
                       cluster_sizes=(4,), batch_sizes=(10,), tx_sizes=(512,))
JOBS = pytest.mark.parametrize("jobs", [1, 2])


def _ids_in_file(path):
    return [json.loads(line)["config_id"]
            for line in path.read_text().splitlines()]


def sweep(spec, scale, axes, results_dir, jobs=1, seeds=None, force=False):
    """One ``repro sweep``: the executor over one plan, summarised."""
    scales = [replace(scale, seed=seed) for seed in seeds or (scale.seed,)]
    (planned,) = run_planned([(spec, scales, axes)], results_dir, "tiny",
                             force=force, jobs=jobs)
    return {"ran": len(planned) - planned.count(None),
            "skipped": planned.count(None),
            "path": str(results_path(results_dir, spec.name))}


@JOBS
def test_sweep_records_and_resumes(tmp_path, jobs):
    spec = registry.get("fig05")
    axes = {"batch_size": (10, 100), "workers": (1, 2)}
    first = sweep(spec, TINY, axes, tmp_path, jobs=jobs)
    assert first["ran"] == 4 and first["skipped"] == 0
    path = results_path(tmp_path, "fig05")
    ids = _ids_in_file(path)
    assert len(ids) == len(set(ids)) == 4
    assert not shard_dir(tmp_path).exists()  # shards cleaned up after merge
    again = sweep(spec, TINY, axes, tmp_path, jobs=jobs)
    assert again["ran"] == 0 and again["skipped"] == 4
    assert _ids_in_file(path) == ids  # resume appends nothing
    wider = dict(axes, batch_size=(10, 100, 1000))
    resumed = sweep(spec, TINY, wider, tmp_path, jobs=jobs)
    assert resumed["ran"] == 2 and resumed["skipped"] == 4


def test_parallel_merge_order_matches_serial_enumeration(tmp_path):
    """The merged file is in grid order no matter which worker finished first."""
    spec = registry.get("fig05")
    axes = {"batch_size": (10, 100, 1000), "workers": (1, 2)}
    sweep(spec, TINY, axes, tmp_path / "par", jobs=3)
    sweep(spec, TINY, axes, tmp_path / "ser", jobs=1)
    assert (_ids_in_file(results_path(tmp_path / "par", "fig05"))
            == _ids_in_file(results_path(tmp_path / "ser", "fig05")))


def test_parallel_and_serial_sweeps_share_resume_state(tmp_path):
    spec = registry.get("fig05")
    sweep(spec, TINY, {"batch_size": (10,)}, tmp_path, jobs=1)
    outcome = sweep(spec, TINY, {"batch_size": (10, 100)}, tmp_path, jobs=2)
    assert outcome == {"ran": 1, "skipped": 1,
                       "path": str(results_path(tmp_path, "fig05"))}


@JOBS
def test_force_sweep_appends_recomputed_records(tmp_path, jobs):
    """``--force`` re-runs must survive the merge: the recomputed record
    shares its config_id with the existing one and is appended anyway (the
    report keeps the last record per id)."""
    spec = registry.get("fig05")
    axes = {"batch_size": (10,)}
    sweep(spec, TINY, axes, tmp_path, jobs=jobs)
    fresh = sweep(spec, TINY, axes, tmp_path, jobs=jobs, force=True)
    assert fresh["ran"] == 1
    ids = _ids_in_file(results_path(tmp_path, "fig05"))
    assert len(ids) == 2 and len(set(ids)) == 1  # duplicate id, last wins


@JOBS
def test_sweep_seeds_are_an_axis(tmp_path, jobs):
    spec = registry.get("fig05")
    outcome = sweep(spec, TINY, {"batch_size": (10,)}, tmp_path, jobs=jobs,
                    seeds=(1, 2))
    assert outcome["ran"] == 2
    records = [json.loads(line) for line in
               results_path(tmp_path, "fig05").read_text().splitlines()]
    assert [r["seed"] for r in records] == [1, 2]  # seed-major grid order
    # The seed lives on the record (and its scale), not in the grid params.
    assert all("seed" not in r["params"] for r in records)
    assert records[0]["config_id"] == config_id(
        "fig05", replace(TINY, seed=1), {"batch_size": 10})


@JOBS
def test_sweep_rejects_unknown_axis_in_parent(tmp_path, jobs):
    with pytest.raises(ValueError, match="no 'cluster_size' axis"):
        sweep(registry.get("fig05"), TINY, {"cluster_size": (4,)}, tmp_path,
              jobs=jobs)


def test_seed_list_resumes_against_a_single_seed_sweep(tmp_path):
    """A record written by a seed-list sweep is skipped by a plain sweep at
    one of its seeds: both spellings are one configuration."""
    spec = registry.get("fig05")
    sweep(spec, TINY, {"batch_size": (10,)}, tmp_path, seeds=(3, 4))
    again = sweep(spec, replace(TINY, seed=4), {"batch_size": (10,)}, tmp_path)
    assert again == {"ran": 0, "skipped": 1,
                     "path": str(results_path(tmp_path, "fig05"))}


def test_merge_shards_folds_orphans_and_tolerates_garbage(tmp_path):
    """Shards from a crashed run are folded in before the next sweep."""
    spec = registry.get("fig05")
    record = make_record(spec, TINY, "tiny", {"batch_size": 10}, [{"sps": 1.0}])
    duplicate = make_record(spec, TINY, "tiny", {"batch_size": 10}, [{"sps": 9.9}])
    other = make_record(spec, TINY, "tiny", {"batch_size": 100}, [{"sps": 2.0}])
    shards = shard_dir(tmp_path)
    shards.mkdir(parents=True)
    with (shards / "fig05.111.jsonl").open("w") as handle:
        handle.write(json.dumps({"idx": 1, "record": other}) + "\n")
        handle.write('{"idx": 2, "record": {"config_id": "trunc')  # crash tail
    with (shards / "fig05.222.jsonl").open("w") as handle:
        handle.write(json.dumps({"idx": 0, "record": record}) + "\n")
        handle.write(json.dumps({"idx": 3, "record": duplicate}) + "\n")
    merged = merge_shards(tmp_path, "fig05")
    assert merged == 2  # duplicate config_id and truncated line discarded
    path = results_path(tmp_path, "fig05")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # idx order, not shard-file order; first record per config_id wins.
    assert [r["params"]["batch_size"] for r in records] == [10, 100]
    assert records[0]["rows"] == [{"sps": 1.0}]
    assert not shards.exists()
    assert merge_shards(tmp_path, "fig05") == 0  # idempotent


def test_merge_shards_skips_ids_already_in_canonical(tmp_path):
    spec = registry.get("fig05")
    record = make_record(spec, TINY, "tiny", {"batch_size": 10}, [{"sps": 1.0}])
    append_record(results_path(tmp_path, "fig05"), record)
    shards = shard_dir(tmp_path)
    shards.mkdir(parents=True)
    stale = make_record(spec, TINY, "tiny", {"batch_size": 10}, [{"sps": 5.0}])
    (shards / "fig05.1.jsonl").write_text(
        json.dumps({"idx": 0, "record": stale}) + "\n")
    assert merge_shards(tmp_path, "fig05") == 0
    assert recorded_ids(results_path(tmp_path, "fig05")) == \
        {config_id("fig05", TINY, {"batch_size": 10})}


def test_run_outcomes_match_across_jobs():
    """``run --all --jobs N`` pools planned points: each outcome is the
    record ``run_point`` builds, in plan order, whichever worker ran it."""
    plans = [(registry.get("fig05"), [TINY], {"batch_size": (10,)}),
             (registry.get("table1"), [TINY], {})]
    serial = [planned for plan in run_planned(plans, None, "tiny", jobs=1)
              for planned in plan]
    pooled = [planned for plan in run_planned(plans, None, "tiny", jobs=2)
              for planned in plan]
    assert [record["experiment"] for record in pooled] == ["fig05", "table1"]
    for one, other in zip(serial, pooled):
        assert one["elapsed_s"] >= 0 and other["elapsed_s"] >= 0
        del one["elapsed_s"], other["elapsed_s"]
    assert serial == pooled  # identical ids, params and rows
    assert pooled[0]["config_id"] == config_id("fig05", TINY,
                                               {"batch_size": 10})


def test_executor_returns_a_rejected_configuration():
    """A driver's configuration ``ValueError`` comes back in its record's
    place instead of poisoning the pool: ``run --all`` skips that driver."""
    ((outcome,),) = run_planned(
        [(registry.get("scenario:rolling-crash"), [TINY],
          {"cluster_size": (2,)})], None, "tiny")
    assert isinstance(outcome, ValueError)


def test_append_shard_line_survives_as_whole_lines(tmp_path):
    """Shard appends are one unbuffered write per record: two appends yield
    two complete, independently parseable wrapper lines."""
    from repro.experiments.parallel import _append_shard_line

    shard = tmp_path / "fig05.123.jsonl"
    _append_shard_line(shard, {"idx": 0, "record": {"config_id": "a"}})
    _append_shard_line(shard, {"idx": 1, "record": {"config_id": "b"}})
    lines = shard.read_text().splitlines()
    assert [json.loads(line)["record"]["config_id"] for line in lines] == \
        ["a", "b"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sigterm_mid_sweep_leaves_shards_merged_and_resumable(tmp_path,
                                                              command):
    """A SIGTERM mid-parallel-run must not orphan or truncate shards: the
    parent's teardown merges what finished, and a later sweep resumes from
    exactly those records — whichever command was interrupted."""
    import os
    import signal
    import subprocess
    import sys
    import time

    # Points slow enough (~1s simulated cluster each) that the SIGTERM sent
    # after the first record provably lands mid-run, with work outstanding.
    axes = {"cluster_size": (4, 7), "workers": (1, 2)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", command, "fig06", "--scale", "quick",
         "--duration", "1.2", "--warmup", "0.1", "--cluster-sizes", "4,7",
         "--workers", "1,2", "--jobs", "2", "--results-dir", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL)
    try:
        # Wait until at least one record has landed in a shard, then kill.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            lines = [line
                     for shard in shard_dir(tmp_path).glob("fig06.*.jsonl")
                     for line in shard.read_text().splitlines()
                     if line.strip()] if shard_dir(tmp_path).is_dir() else []
            if lines or proc.poll() is not None:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0  # the run really was interrupted
    # Whatever the workers finished was merged by the parent's teardown:
    # every canonical line is complete JSON and no shard files linger.
    path = results_path(tmp_path, "fig06")
    merged = [json.loads(line) for line in path.read_text().splitlines()] \
        if path.exists() else []
    assert merged, "teardown merged nothing despite a finished record"
    assert all("config_id" in record for record in merged)
    assert len(merged) < 4, "run finished before the SIGTERM landed"
    if shard_dir(tmp_path).is_dir():
        assert not list(shard_dir(tmp_path).glob("fig06.*.jsonl"))
    # The interrupted store resumes: a follow-up sweep at the same scale
    # runs only the missing points and ends with each of the 4
    # configurations recorded exactly once.
    scale = replace(ExperimentScale.quick(), duration=1.2, warmup=0.1)
    outcome = sweep(registry.get("fig06"), scale, axes, tmp_path, jobs=2)
    assert outcome["ran"] + outcome["skipped"] == 4
    assert outcome["skipped"] == len(merged)
    ids = _ids_in_file(path)
    assert len(ids) == len(set(ids)) == 4
