"""Cartesian sweep planner with a resumable JSONL result store.

A *sweep* runs one registered experiment over one or more seeds times the
cartesian product of axis values (``cluster_size``, ``batch_size``,
``tx_size``, ``workers`` ...), one JSON line per configuration in
``<results_dir>/<experiment>.jsonl`` (the executor that runs the plan is
:mod:`repro.experiments.parallel`).  Every record carries a ``config_id``
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
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

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

    The seed is part of the scale.  An axis override that equals the
    driver's default (``defaults``, from ``ExperimentSpec.axis_defaults`` —
    e.g. ``protocol=fireledger`` on a fireledger-default scenario) is dropped
    from the payload, so the explicit and the bare spelling hash identically
    and resume against each other.
    """
    params = dict(params)
    for axis, default in (defaults or {}).items():
        if axis in params and params[axis] == default:
            del params[axis]
    payload = {"experiment": experiment, "scale": asdict(scale),
               "params": params}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=list).encode()).hexdigest()
    return digest[:16]


def point_id(spec: ExperimentSpec, scale: ExperimentScale,
             params: Mapping) -> str:
    """:func:`config_id` of one point of ``spec``.

    A spec that pins its own run length reads only the seed off the scale,
    so only the seed is hashed: the same scenario run under another preset
    is the same configuration.
    """
    if spec.pins_duration:
        scale = ExperimentScale(seed=scale.seed)
    return config_id(spec.name, scale, params, defaults=spec.axis_defaults)


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
        "config_id": point_id(spec, scale, params),
        "scale": scale_label,
        "seed": scale.seed,
        "params": dict(params),
        "rows": [dict(row) for row in rows],
    }
    if elapsed_s is not None:
        record["elapsed_s"] = round(elapsed_s, 2)
    return record


def plan_sweep(spec: ExperimentSpec, scales: Sequence[ExperimentScale],
               axes: Mapping[str, Sequence],
               done: set[str]) -> Iterator[tuple]:
    """Enumerate a sweep: seed x grid, seed outermost, in the order it runs.

    ``scales`` holds one resolved scale per seed.  Yields ``(scale, point,
    label, fresh)`` per configuration; ``label`` is its progress-line
    spelling and ``fresh`` False when the configuration's ``config_id`` is
    in ``done`` or was already yielded (two spellings of one configuration
    in the same grid).
    """
    seen = set(done)
    for scale in scales:
        for point in grid_points(axes):
            cid = point_id(spec, scale, point)
            label = ", ".join(f"{k}={v}" for k, v in
                              sorted({**point, "seed": scale.seed}.items()))
            yield scale, point, label, cid not in seen
            seen.add(cid)


def run_point(spec: ExperimentSpec, scale: ExperimentScale, point: Mapping,
              params: Mapping, scale_label: str) -> dict:
    """Run one planned grid point and build its record."""
    started = time.perf_counter()
    rows = spec.run(scale, axis_values={k: (v,) for k, v in point.items()})
    return make_record(spec, scale, scale_label, params, rows,
                       elapsed_s=time.perf_counter() - started)
