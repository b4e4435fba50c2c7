"""The three axis binding modes the one-grid registry replaced, kept as a
test oracle.

Until every experiment was one point function over one ordered grid, an
axis value reached a figure driver in one of three ways, chosen by reading
the driver's signature and its ``grid`` attribute:

* ``"scale"`` — the driver's declared grid (``@swept(...)``) iterates an
  ``ExperimentScale`` tuple: the value replaces that tuple on the scale;
* ``"scalar"`` — a parameter named like the axis keyword (Figure 10's
  ``n_nodes``): the driver runs once per value, rows concatenated;
* ``"tuple"`` — a parameter named like the scale tuple (Figures 16/17's
  ``cluster_sizes``): the driver takes every value at once.

This module keeps that machinery — :func:`swept`, :func:`cluster_figure`,
:func:`driver_axes` and :func:`run` are the originals — and re-declares
every table/figure driver with it, around the row functions the shipped
points wrap (``__wrapped__``).  Run against the shipped registry with
``run_cluster`` stubbed, it must make the same calls in the same order and
return ``==`` rows.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import replace
from typing import Callable, Optional

from repro.core.config import FireLedgerConfig
from repro.experiments import figures
from repro.experiments.harness import ExperimentScale
from repro.net.latency import GeoDistributedLatency

#: ``ExperimentScale`` sweep tuple -> the configuration field it varies.
_GRID_FIELDS = {"cluster_sizes": "n_nodes", "batch_sizes": "batch_size",
                "tx_sizes": "tx_size", "workers_sweep": "workers"}
#: fig10/11/12 iterate ``workers_sweep[:2]`` to bound simulation cost.
_TWO_WORKER_COUNTS = {"workers_sweep": 2}
#: Axis name -> (the scale tuple a figure grid iterates, the scalar keyword
#: a driver takes), as the axis table declared them.
AXIS_BINDINGS = {"cluster_size": ("cluster_sizes", "n_nodes"),
                 "batch_size": ("batch_sizes", None),
                 "tx_size": ("tx_sizes", None),
                 "workers": ("workers_sweep", "workers")}


def _scale(scale: Optional[ExperimentScale]) -> ExperimentScale:
    return scale or ExperimentScale()


def swept(*grid: str, caps: Optional[dict] = None,
          n_nodes: Optional[int] = None) -> Callable:
    """Declare a driver as one point function run over a grid."""
    caps = caps or {}

    def declare(point: Callable[..., dict]) -> Callable[..., list]:
        def rows(scale: Optional[ExperimentScale], **pinned) -> list[dict]:
            scale = _scale(scale)
            values = (getattr(scale, name)[:caps.get(name)] for name in grid)
            return [point(scale, **pinned,
                          **{_GRID_FIELDS[name]: value
                             for name, value in zip(grid, combo)})
                    for combo in itertools.product(*values)]

        if n_nodes is None:
            def driver(scale: Optional[ExperimentScale] = None) -> list[dict]:
                return rows(scale)
        else:
            def driver(scale: Optional[ExperimentScale] = None,
                       n_nodes: int = n_nodes) -> list[dict]:
                return rows(scale, n_nodes=n_nodes)
        driver.__name__ = driver.__qualname__ = point.__name__
        driver.__doc__ = point.__doc__
        driver.grid, driver.caps = grid, caps
        return driver

    return declare


def cluster_figure(*grid: str, caps: Optional[dict] = None,
                   n_nodes: Optional[int] = None, geo: bool = False,
                   window: Optional[Callable] = None,
                   faults: Optional[Callable] = None,
                   latency_trim: float = 0.0, **fixed) -> Callable:
    """Declare a figure whose every grid point is one FireLedger cluster run.

    Calls ``figures.run_cluster`` at call time, so a stub patched there
    sees both implementations.
    """
    def declare(row: Callable[..., dict]) -> Callable[..., list]:
        def point(scale: ExperimentScale, **varied) -> dict:
            config = FireLedgerConfig(**fixed, **varied)
            duration, warmup = (window(scale) if window
                                else (scale.duration, scale.warmup))
            result = figures.run_cluster(
                config, duration=duration, warmup=warmup, seed=scale.seed,
                latency_model=GeoDistributedLatency() if geo else None,
                faults=faults(config, scale) if faults else None,
                latency_trim=latency_trim)
            return row(config, result)

        point.__name__, point.__doc__ = row.__name__, row.__doc__
        return swept(*grid, caps=caps, n_nodes=n_nodes)(point)

    return declare


def _row(name: str) -> Callable[..., dict]:
    """The ``row(config, result)`` function a shipped figure point wraps."""
    return getattr(figures, name).__wrapped__


def _fig05_point(scale: ExperimentScale, **fields) -> dict:
    (row,) = figures.figure05_signature_rate(scale, **fields)
    return row


def _crash_last_f(config, scale):
    return figures._crash_last_f(config, at=scale.warmup / 2)  # noqa: SLF001


def _byzantine_last(config, scale):
    return figures._byzantine_last(config)  # noqa: SLF001


_WAN = {"geo": True, "window": lambda scale: (scale.duration * 2, scale.warmup)}


def figure16_vs_hotstuff(scale: Optional[ExperimentScale] = None,
                         cluster_sizes: tuple[int, ...] = (4, 10, 16),
                         tx_sizes: tuple[int, ...] = (128, 512, 1024)) -> list[dict]:
    return figures.c5_comparison(("hotstuff",), scale, cluster_sizes,
                                 tx_sizes)["hotstuff"]


def figure17_vs_bftsmart(scale: Optional[ExperimentScale] = None,
                         cluster_sizes: tuple[int, ...] = (4, 10, 16),
                         tx_sizes: tuple[int, ...] = (128, 512, 1024)) -> list[dict]:
    return figures.c5_comparison(("bftsmart",), scale, cluster_sizes,
                                 tx_sizes)["bftsmart"]


#: Registry name -> the driver as it was declared.
DRIVERS: dict[str, Callable[..., list]] = {
    "table1": figures.table1_costs,
    "fig05": swept("batch_sizes", "tx_sizes", "workers_sweep")(_fig05_point),
    "fig06": cluster_figure(
        "cluster_sizes", "workers_sweep", batch_size=1, tx_size=512,
        fill_blocks=False)(_row("figure06_bps_single_dc")),
    "fig07": cluster_figure(
        "cluster_sizes", "batch_sizes", "tx_sizes", "workers_sweep")(
            _row("figure07_tps_single_dc")),
    "fig08": cluster_figure(
        "cluster_sizes", "workers_sweep", "batch_sizes", tx_size=512)(
            _row("figure08_latency_cdf")),
    "fig09": cluster_figure(
        "cluster_sizes", "workers_sweep", batch_size=1000, tx_size=512)(
            _row("figure09_latency_breakdown")),
    "fig10": cluster_figure(
        "batch_sizes", "workers_sweep", caps=_TWO_WORKER_COUNTS, n_nodes=100,
        tx_size=512, window=lambda scale: (max(scale.duration / 2, 0.2),
                                           scale.warmup / 2))(
            _row("figure10_scalability")),
    "fig11": cluster_figure(
        "cluster_sizes", "batch_sizes", "workers_sweep",
        caps=_TWO_WORKER_COUNTS, tx_size=512, faults=_crash_last_f)(
            _row("figure11_crash_failures")),
    "fig12": cluster_figure(
        "cluster_sizes", "batch_sizes", "workers_sweep",
        caps=_TWO_WORKER_COUNTS, tx_size=512, faults=_byzantine_last)(
            _row("figure12_byzantine_failures")),
    "fig13": cluster_figure(
        "cluster_sizes", "workers_sweep", **_WAN, batch_size=1, tx_size=512,
        fill_blocks=False)(_row("figure13_bps_multi_dc")),
    "fig14": cluster_figure(
        "cluster_sizes", "batch_sizes", "workers_sweep", **_WAN,
        tx_size=512)(_row("figure14_tps_multi_dc")),
    "fig15": cluster_figure(
        "cluster_sizes", "workers_sweep", "batch_sizes", **_WAN, tx_size=512,
        latency_trim=0.05)(_row("figure15_latency_multi_dc")),
    "fig16": figure16_vs_hotstuff,
    "fig17": figure17_vs_bftsmart,
}


def driver_axes(func: Callable) -> dict[str, str]:
    """The axes ``func`` sweeps and how a value reaches it, read off ``func``."""
    params = inspect.signature(func).parameters
    grid = getattr(func, "grid", ())
    bound: dict[str, str] = {}
    for name, (scale_field, keyword) in AXIS_BINDINGS.items():
        if keyword in params:
            bound[name] = "scalar"
        elif scale_field in params:
            bound[name] = "tuple"
        elif scale_field in grid:
            bound[name] = "scale"
    return bound


def run(name: str, scale: ExperimentScale,
        axis_values: Optional[dict] = None) -> list[dict]:
    """``ExperimentSpec.run`` as it was: truncate past a cap, then bind each
    axis by its kind."""
    func = DRIVERS[name]
    axes, caps = driver_axes(func), getattr(func, "caps", {})
    kwargs: dict = {}
    scalars: dict[str, tuple] = {}
    for axis, values in sorted((axis_values or {}).items()):
        scale_field, keyword = AXIS_BINDINGS[axis]
        values = tuple(values)[:caps.get(scale_field)]
        kind = axes[axis]
        if kind == "scale":
            scale = replace(scale, **{scale_field: values})
        elif kind == "tuple":
            kwargs[scale_field] = values
        else:
            scalars[keyword] = values
    rows: list[dict] = []
    for combo in itertools.product(*scalars.values()):
        rows.extend(func(scale, **kwargs, **dict(zip(scalars, combo))))
    return rows
