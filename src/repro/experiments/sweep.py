"""Cartesian sweep engine with a resumable JSONL result store.

A *sweep* runs one registered experiment over the cartesian product of axis
values (``cluster_size``, ``batch_size``, ``tx_size``, ``workers``, plus one
or more seeds), appending one JSON line per configuration to
``<results_dir>/<experiment>.jsonl``.  Every record carries a ``config_id``
— a hash of the experiment name, the fully-resolved scale and the grid point —
so re-running the same sweep skips configurations that are already on disk,
which makes long sweeps resumable and lets ``python -m repro report`` rebuild
EXPERIMENTS.md deterministically from whatever has been recorded.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.experiments.harness import ExperimentScale
from repro.experiments.registry import ExperimentSpec

RESULTS_DIR_DEFAULT = "results"


def grid_points(axes: Mapping[str, Sequence]) -> Iterator[dict]:
    """Yield the cartesian product of ``axes`` as dicts, in a stable order."""
    if not axes:
        yield {}
        return
    names = sorted(axes)
    for combo in itertools.product(*(tuple(axes[name]) for name in names)):
        yield dict(zip(names, combo))


def config_id(experiment: str, scale: ExperimentScale, params: Mapping,
              defaults: Optional[Mapping] = None) -> str:
    """Stable identifier of one configuration (experiment + scale + point).

    The hash payload is canonicalised so equivalent spellings of a run
    collide and resume across entry points:

    * a seeded sweep records the seed both on the scale and as a ``seed``
      grid param, while ``repro run --seed s`` only sets it on the scale —
      folding ``params['seed']`` into the scale makes both hash identically;
    * an axis override that equals the driver's default (``defaults``, from
      ``ExperimentSpec.axis_defaults`` — e.g. ``protocol=fireledger`` on a
      fireledger-default scenario) is dropped from the payload, so the
      explicit and the bare spelling hash identically.
    """
    params = dict(params)
    seed = params.pop("seed", None)
    if seed is not None:
        scale = replace(scale, seed=seed)
    for axis, default in (defaults or {}).items():
        if axis in params and params[axis] == default:
            del params[axis]
    payload = {"experiment": experiment, "scale": asdict(scale),
               "params": params}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=list).encode()).hexdigest()
    return digest[:16]


def file_stem(experiment: str) -> str:
    """Filesystem-safe stem for an experiment name.

    Scenario experiments are registered as ``scenario:<name>`` and ``:`` is
    not a legal filename character on Windows, so result/shard/CSV files use
    ``--`` in its place; :func:`experiment_from_stem` inverts the mapping.
    """
    return experiment.replace(":", "--")


def experiment_from_stem(stem: str) -> str:
    """Invert :func:`file_stem` (registry names never contain ``--``)."""
    return stem.replace("--", ":")


def results_path(results_dir: "str | Path", experiment: str) -> Path:
    return Path(results_dir) / f"{file_stem(experiment)}.jsonl"


def recorded_ids(path: "str | Path") -> set[str]:
    """``config_id`` values already present in a JSONL result file."""
    path = Path(path)
    if not path.exists():
        return set()
    ids = set()
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                ids.add(json.loads(line)["config_id"])
            except (json.JSONDecodeError, KeyError):
                continue  # tolerate a truncated trailing line from a crash
    return ids


def append_record(path: "str | Path", record: Mapping) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # No sort_keys: records are built in a fixed key order and sorting would
    # also scramble the row columns, which the report preserves.
    with path.open("a") as handle:
        handle.write(json.dumps(record, default=str) + "\n")


def make_record(spec: ExperimentSpec, scale: ExperimentScale, scale_label: str,
                params: Mapping, rows: Sequence[Mapping],
                elapsed_s: Optional[float] = None) -> dict:
    record = {
        "experiment": spec.name,
        "title": spec.title,
        "config_id": config_id(spec.name, scale, params,
                               defaults=spec.axis_defaults),
        "scale": scale_label,
        "seed": scale.seed,
        "params": dict(params),
        "rows": [dict(row) for row in rows],
    }
    if elapsed_s is not None:
        record["elapsed_s"] = round(elapsed_s, 2)
    return record


def plan_sweep(spec: ExperimentSpec, scale: ExperimentScale,
               axes: Mapping[str, Sequence],
               seeds: Optional[Sequence[int]],
               done: set[str]) -> Iterator[tuple]:
    """Enumerate a sweep: seed x grid, in the order both engines run it.

    Yields ``(seeded_scale, point, params, label, fresh)`` per configuration;
    ``params`` is the point plus the seed when seeds are swept, ``label`` its
    progress-line spelling and ``fresh`` False when the configuration's
    ``config_id`` is in ``done`` or was already yielded (two spellings of one
    configuration in the same grid).
    """
    seen = set(done)
    for seed in (seeds if seeds else (scale.seed,)):
        seeded = replace(scale, seed=seed)
        for point in grid_points(axes):
            params = dict(point)
            if seeds:
                params["seed"] = seed
            cid = config_id(spec.name, seeded, params,
                            defaults=spec.axis_defaults)
            label = ", ".join(f"{k}={v}" for k, v in sorted(params.items())) or "(base)"
            yield seeded, point, params, label, cid not in seen
            seen.add(cid)


def run_point(spec: ExperimentSpec, scale: ExperimentScale, point: Mapping,
              params: Mapping, scale_label: str) -> dict:
    """Run one planned grid point and build its record."""
    started = time.perf_counter()
    rows = spec.run(scale, axis_values={k: (v,) for k, v in point.items()})
    return make_record(spec, scale, scale_label, params, rows,
                       elapsed_s=time.perf_counter() - started)


def run_sweep(spec: ExperimentSpec,
              scale: ExperimentScale,
              axes: Mapping[str, Sequence[int]],
              results_dir: "str | Path" = RESULTS_DIR_DEFAULT,
              scale_label: str = "default",
              seeds: Optional[Sequence[int]] = None,
              resume: bool = True,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run ``spec`` over the grid, streaming one JSONL record per point.

    Returns ``{"ran": n, "skipped": n, "path": str}``.  With ``resume`` (the
    default) grid points whose ``config_id`` is already in the result file are
    skipped, so an interrupted sweep picks up where it left off.
    """
    # Unknown axes are rejected by spec.run on the first grid point, before
    # anything is appended to the store — no pre-validation needed here.
    path = results_path(results_dir, spec.name)
    done = recorded_ids(path) if resume else set()
    emit = progress or (lambda _msg: None)
    ran = skipped = 0
    for seeded, point, params, label, fresh in plan_sweep(
            spec, scale, axes, seeds, done):
        if not fresh:
            skipped += 1
            emit(f"skip {spec.name} [{label}] (already recorded)")
            continue
        record = run_point(spec, seeded, point, params, scale_label)
        append_record(path, record)
        ran += 1
        emit(f"ran  {spec.name} [{label}] -> {len(record['rows'])} rows "
             f"in {record['elapsed_s']:.1f}s")
    return {"ran": ran, "skipped": skipped, "path": str(path)}
