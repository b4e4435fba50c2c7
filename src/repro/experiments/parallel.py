"""Multi-process sweep executor with crash-safe JSONL shards.

``repro sweep --jobs N`` dispatches grid points to a ``multiprocessing``
worker pool instead of running them serially.  Each worker streams every
finished configuration to its *own* shard file under
``<results_dir>/.shards/`` (one wrapper line ``{"idx": ..., "record": ...}``
per configuration, appended and flushed per task), and the parent merges the
shards into the canonical ``<results_dir>/<experiment>.jsonl`` — deduplicated
by ``config_id`` and ordered by the deterministic grid-enumeration index, so
a from-scratch parallel sweep produces the same merged file regardless of
which worker finished first.

Crash and resume semantics match the serial engine:

* the canonical file is only ever appended to by the parent, after the pool
  has drained (or failed) — concurrent workers never touch it;
* a worker crash loses at most the configuration it was computing; everything
  it already wrote to its shard is merged by the parent's ``finally``;
* a parent crash leaves orphan shards behind, which the next sweep (parallel
  or not — the CLI always sweeps through :func:`merge_shards` first) folds in
  before computing the resume set, so finished work is never re-run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.experiments import registry
from repro.experiments.harness import ExperimentScale
from repro.experiments.registry import ExperimentSpec
from repro.experiments.sweep import (
    RESULTS_DIR_DEFAULT,
    file_stem,
    plan_sweep,
    recorded_ids,
    results_path,
    run_point,
)

SHARD_DIR_NAME = ".shards"


def _pool_context() -> multiprocessing.context.BaseContext:
    """``forkserver`` where the platform has it, else ``spawn`` — never ``fork``.

    The parent may have threads (the realtime backend's event loops, a test
    runner's); a forked child inherits their locks held and can deadlock
    before it runs a task.  Both methods start workers from a fresh import,
    which is all a task needs: it names its driver and the worker resolves
    it through the registry.  Workers re-import the parent's main module,
    so a script that drives a pool must guard its entry point with
    ``if __name__ == "__main__":`` (``python -m repro`` does).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn")


def shard_dir(results_dir: "str | Path") -> Path:
    return Path(results_dir) / SHARD_DIR_NAME


def _shard_files(results_dir: "str | Path", experiment: str) -> list[Path]:
    directory = shard_dir(results_dir)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"{file_stem(experiment)}.*.jsonl"))


def merge_shards(results_dir: "str | Path", experiment: str,
                 dedup_against_canonical: bool = True) -> int:
    """Fold worker shards into the canonical JSONL; returns records merged.

    Shard records are appended in grid-enumeration (``idx``) order and
    deduplicated by ``config_id`` against each other — and, by default,
    against the canonical file — so merging is idempotent and the merged
    file is stable across reruns.  A ``--fresh`` sweep passes
    ``dedup_against_canonical=False``: its recomputed records share their
    ``config_id`` with existing ones and must still be appended (the report
    renderer keeps the last record per id, as with a serial re-run).
    Shard files are deleted once folded in; a truncated trailing line (worker
    killed mid-write) is silently discarded.
    """
    shards = _shard_files(results_dir, experiment)
    if not shards:
        return 0
    path = results_path(results_dir, experiment)
    seen = recorded_ids(path) if dedup_against_canonical else set()
    pending: list[tuple[int, dict]] = []
    for shard in shards:
        with shard.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    wrapper = json.loads(line)
                    record = wrapper["record"]
                    cid = record["config_id"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # truncated or foreign line
                if cid in seen:
                    continue
                seen.add(cid)
                pending.append((wrapper.get("idx", 1 << 30), record))
    pending.sort(key=lambda item: item[0])
    if pending:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            for _idx, record in pending:
                handle.write(json.dumps(record, default=str) + "\n")
    for shard in shards:
        shard.unlink(missing_ok=True)
    try:
        shard_dir(results_dir).rmdir()
    except OSError:
        pass  # non-empty (another experiment's shards) or already gone
    return len(pending)


def _ignore_sigint() -> None:
    """Pool-worker initializer: leave Ctrl-C handling to the parent.

    A terminal delivers SIGINT to the whole process group; if workers died
    from it directly they could be killed between buffering a record and
    flushing it.  With SIGINT ignored, workers only stop when the parent's
    pool teardown terminates them — after the parent's ``KeyboardInterrupt``
    has started the ``finally: merge_shards`` path.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _append_shard_line(shard: Path, payload: dict) -> None:
    """Append one wrapper line with a single unbuffered ``os.write``.

    Buffered appends can be truncated mid-record when the worker is killed
    between partial flushes; one ``write(2)`` of the whole line to an
    ``O_APPEND`` descriptor either lands entirely or (if the kill arrives
    first) not at all, so a hard kill costs at most the record being
    computed — never one already reported finished.
    """
    data = (json.dumps(payload, default=str) + "\n").encode()
    fd = os.open(shard, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def _run_sweep_task(task: tuple) -> tuple[int, float, str]:
    """Worker body: run one grid point, append it to this worker's shard."""
    idx, spec_name, scale, point, params, label, scale_label, shard_base = task
    record = run_point(registry.get(spec_name), scale, point, params,
                       scale_label)
    shard = Path(shard_base) / f"{file_stem(spec_name)}.{os.getpid()}.jsonl"
    shard.parent.mkdir(parents=True, exist_ok=True)
    _append_shard_line(shard, {"idx": idx, "record": record})
    return len(record["rows"]), record["elapsed_s"], label


def run_parallel_sweep(spec: ExperimentSpec,
                       scale: ExperimentScale,
                       axes: Mapping[str, Sequence[int]],
                       results_dir: "str | Path" = RESULTS_DIR_DEFAULT,
                       scale_label: str = "default",
                       seeds: Optional[Sequence[int]] = None,
                       resume: bool = True,
                       jobs: int = 2,
                       progress: Optional[Callable[[str], None]] = None) -> dict:
    """Parallel counterpart of :func:`repro.experiments.sweep.run_sweep`.

    Same contract and return value (``{"ran": n, "skipped": n, "path": str}``);
    grid points run on ``jobs`` worker processes.  Orphan shards from an
    interrupted earlier run are merged before the resume set is computed.
    """
    # Surface unknown-axis errors here, in the parent, not as a pool failure.
    spec.normalize_axis_values({name: tuple(values)
                                for name, values in axes.items()})
    emit = progress or (lambda _msg: None)
    path = results_path(results_dir, spec.name)
    leftover = merge_shards(results_dir, spec.name)
    if leftover:
        emit(f"merged {leftover} record(s) from interrupted shards")
    done = recorded_ids(path) if resume else set()

    tasks = []
    skipped = 0
    for seeded, point, params, label, fresh in plan_sweep(
            spec, scale, axes, seeds, done):
        if not fresh:
            skipped += 1
            emit(f"skip {spec.name} [{label}] (already recorded)")
            continue
        tasks.append((len(tasks), spec.name, seeded, point, params, label,
                      scale_label, str(shard_dir(results_dir))))

    ran = 0
    if tasks:
        jobs = max(1, min(jobs, len(tasks)))
        context = _pool_context()
        # SIGTERM (timeout wrappers, CI runner cancellation) is converted to
        # KeyboardInterrupt for the duration of the pool, so it unwinds
        # through the same finally as Ctrl-C and the finished shards are
        # merged instead of orphaned.  Only the main thread may install
        # signal handlers; elsewhere (pytest workers, embedding apps) the
        # default disposition stays.
        previous_term = None
        if threading.current_thread() is threading.main_thread():
            def _terminate(signum, frame):  # noqa: ARG001 - signal signature
                raise KeyboardInterrupt
            previous_term = signal.signal(signal.SIGTERM, _terminate)
        try:
            with context.Pool(processes=jobs,
                              initializer=_ignore_sigint) as pool:
                for n_rows, elapsed, label in pool.imap_unordered(
                        _run_sweep_task, tasks):
                    ran += 1
                    emit(f"ran  {spec.name} [{label}] -> {n_rows} rows "
                         f"in {elapsed:.1f}s ({ran}/{len(tasks)})")
        finally:
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)
            # Keep whatever the workers finished, even if one of them (or the
            # pool itself) blew up mid-sweep.  A --fresh sweep recomputes
            # points whose config_id is already on disk, so its records must
            # survive the merge's canonical-file dedup.
            merge_shards(results_dir, spec.name,
                         dedup_against_canonical=resume)
    return {"ran": ran, "skipped": skipped, "path": str(path)}


def _run_point_task(task: tuple) -> "dict | ValueError":
    """``repro run``'s unit of work: one planned point -> its record.

    ``task`` is ``(spec_name, scale, point, params, scale_label)``.  A driver
    that rejects its configuration (e.g. a scenario whose fault schedule
    references nodes outside an overridden cluster size) returns the
    ``ValueError`` in place of the record instead of poisoning the pool, so
    the caller can skip just that driver.
    """
    spec_name, scale, point, params, scale_label = task
    try:
        return run_point(registry.get(spec_name), scale, point, params,
                         scale_label)
    except ValueError as exc:
        return exc


def run_specs(tasks: Sequence[tuple], jobs: int) -> Iterator:
    """Run planned points of several drivers: one outcome per task, in order.

    ``repro run`` prints and records what this yields (see
    :func:`_run_point_task` for the task and outcome); ``--all --jobs N``
    spreads independent drivers' points over worker processes.  Serially a
    point runs when its outcome is asked for, so an interrupted ``run --all``
    keeps every driver it finished.
    """
    if min(jobs, len(tasks)) <= 1:
        yield from map(_run_point_task, tasks)
        return
    with _pool_context().Pool(processes=min(jobs, len(tasks))) as pool:
        yield from pool.imap(_run_point_task, tasks)
