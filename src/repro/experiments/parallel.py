"""The one sweep executor, with crash-safe JSONL shards.

``repro run`` and ``repro sweep`` hand their plans to :func:`run_planned`,
which runs every grid point through one task function — in this process
for ``jobs=1``, on a ``multiprocessing`` worker pool for ``jobs>1``.  Each
task streams its finished configuration to its process's *own* shard file
under ``<results_dir>/.shards/`` (one wrapper line ``{"idx": ..., "record":
...}`` per configuration, one ``write(2)`` per task), and the parent merges
the shards into the canonical ``<results_dir>/<experiment>.jsonl`` —
deduplicated by ``config_id`` and ordered by the deterministic
grid-enumeration index, so a from-scratch sweep produces the same merged
file whatever ``jobs`` is and whichever worker finished first.

Crash and resume semantics:

* the canonical file is only ever appended to by the parent, after the
  tasks have drained (or failed) — workers never touch it;
* a worker crash loses at most the configuration it was computing; everything
  it already wrote to its shard is merged by the parent's ``finally``;
* a parent crash leaves orphan shards behind, which the next run or sweep
  folds in before computing the resume set, so finished work is never re-run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
from contextlib import closing
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.experiments import registry
from repro.experiments.harness import ExperimentScale
from repro.experiments.registry import ExperimentSpec
from repro.experiments.sweep import (
    append_record,
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
    file is stable across reruns.  A ``--force`` run passes
    ``dedup_against_canonical=False``: its recomputed records share their
    ``config_id`` with existing ones and must still be appended (the report
    renderer keeps the last record per id).
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
    for _idx, record in pending:
        append_record(path, record)
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


def _run_task(task: tuple) -> tuple[int, "dict | ValueError"]:
    """Run one planned point; stream its record to this process's shard.

    ``task`` is ``(idx, experiment, scale, point, scale_label, shard_base)``;
    ``shard_base`` is None when nothing is recorded.  A driver that rejects
    its configuration (e.g. a scenario whose fault schedule references nodes
    outside an overridden cluster size) returns the ``ValueError`` in place
    of the record instead of poisoning the pool, so ``run --all`` can skip
    just that driver.
    """
    idx, name, scale, point, scale_label, shard_base = task
    try:
        record = run_point(registry.get(name), scale, point, point,
                           scale_label)
    except ValueError as exc:
        return idx, exc
    if shard_base is not None:
        shard = Path(shard_base) / f"{file_stem(name)}.{os.getpid()}.jsonl"
        shard.parent.mkdir(parents=True, exist_ok=True)
        _append_shard_line(shard, {"idx": idx, "record": record})
    return idx, record


def _finish(tasks: list[tuple], held: set[str],
            jobs: int) -> Iterator[tuple[int, "dict | ValueError"]]:
    """Run every task, yielding ``(idx, outcome)`` as each one finishes.

    Up to ``jobs`` pool workers take the tasks, except those of the
    host-measuring drivers named in ``held``: measuring the host while
    sibling workers saturate the cores would record inflated numbers as
    real data, so they run inline once the pool has drained and shut down.
    """
    pooled = [task for task in tasks if task[1] not in held]
    if jobs > 1 and pooled:
        with _pool_context().Pool(processes=min(jobs, len(pooled)),
                                  initializer=_ignore_sigint) as pool:
            yield from pool.imap_unordered(_run_task, pooled)
        tasks = [task for task in tasks if task[1] in held]
    yield from map(_run_task, tasks)


def run_planned(plans: Sequence[tuple[ExperimentSpec,
                                      Sequence[ExperimentScale],
                                      Mapping[str, Sequence]]],
                results_dir: "str | Path | None",
                scale_label: str,
                force: bool = False,
                jobs: int = 1,
                progress: Optional[Callable[[str], None]] = None) -> list[list]:
    """Plan and run ``(spec, scales, axes)`` sweeps: the one executor.

    ``repro run`` and ``repro sweep`` both go through here; ``jobs=1`` runs
    every point in this process, ``jobs>1`` on a worker pool.  With a
    ``results_dir`` each finished record is streamed to a shard and the
    shards are merged into the canonical JSONL in grid order, even when a
    point, a worker or this process (SIGTERM, Ctrl-C) fails mid-run; orphan
    shards of an interrupted earlier run are merged before the resume set is
    computed, so finished work is never re-run.  ``force`` plans against an
    empty resume set; ``results_dir=None`` records nothing.

    Returns, per plan, one outcome per planned point in plan order: its
    record, the driver's ``ValueError``, or None for a point already
    recorded.
    """
    emit = progress or (lambda _msg: None)
    outcomes: list[list] = []
    tasks: list[tuple] = []
    slots: list[tuple] = []  # per task: (plan's outcomes, position, label)
    held: set[str] = set()
    shard_base = None if results_dir is None else str(shard_dir(results_dir))
    for spec, scales, axes in plans:
        # Surface unknown-axis errors here, in the parent, not from a task.
        spec.normalize_axis_values(axes)
        done: set[str] = set()
        if results_dir is not None:
            leftover = merge_shards(results_dir, spec.name)
            if leftover:
                emit(f"merged {leftover} record(s) from interrupted shards")
            if not force:
                done = recorded_ids(results_path(results_dir, spec.name))
        planned: list = []
        first = len(tasks)
        for scale, point, label, fresh in plan_sweep(spec, scales, axes, done):
            if fresh:
                slots.append((planned, len(planned), f"{spec.name} [{label}]"))
                tasks.append((len(tasks), spec.name, scale, point,
                              scale_label, shard_base))
            else:
                emit(f"{spec.name} [{label}]: already recorded "
                     f"(use --force to re-run)")
            planned.append(None)
        outcomes.append(planned)
        if spec.wall_clock and jobs > 1 and len(tasks) > first:
            held.add(spec.name)
            emit(f"note: {spec.name} measures host wall-clock time; "
                 f"running serially despite --jobs {jobs}")

    # SIGTERM (timeout wrappers, CI runner cancellation) is converted to
    # KeyboardInterrupt while tasks run, so it unwinds through the same
    # finally as Ctrl-C and the finished shards are merged instead of
    # orphaned.  Only the main thread may install signal handlers; elsewhere
    # (pytest workers, embedding apps) the default disposition stays.
    previous_term = None
    if threading.current_thread() is threading.main_thread():
        def _terminate(signum, frame):  # noqa: ARG001 - signal signature
            raise KeyboardInterrupt
        previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        with closing(_finish(tasks, held, jobs)) as finishing:
            for count, (idx, outcome) in enumerate(finishing, 1):
                planned, position, label = slots[idx]
                planned[position] = outcome
                if isinstance(outcome, dict):
                    emit(f"ran  {label} -> {len(outcome['rows'])} rows in "
                         f"{outcome['elapsed_s']:.1f}s ({count}/{len(tasks)})")
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
        if results_dir is not None:
            # A forced re-run recomputes points whose config_id is already
            # on disk, so its records must survive the canonical-file dedup.
            for spec, _scales, _axes in plans:
                merge_shards(results_dir, spec.name,
                             dedup_against_canonical=not force)
    return outcomes
