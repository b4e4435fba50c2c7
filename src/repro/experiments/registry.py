"""Registry of experiments, and the one table of sweep axes.

Every experiment is one point function plus one ordered grid.  The tables
and figures of :mod:`repro.experiments.figures` are registered here under a
short stable name (``table1``, ``fig05`` ... ``fig17``), next to the
host-side drivers and one ``scenario:<name>`` entry per shipped scenario.
The registry is the single front door used by the CLI (``python -m
repro``), the sweep engine, the pytest benchmarks and the examples.

:data:`AXES` is the one declaration of what a sweep axis *is*: the CLI flags,
``--axis NAME=`` parsing, the field the axis sets, the scenarios' defaults
and ``config_id`` defaults, and the report's echo suppression and identity
columns are all loops or lookups over it.  An axis is the field it sets; a
grid is its default values: an experiment's grid maps each axis it accepts,
outermost first, to its default values at a scale, and
:meth:`ExperimentSpec.run` calls ``point(scale, **{axis.keyword: value})``
once per combination of one ``itertools.product``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from repro.experiments import calibrate, figures, memory
from repro.experiments.harness import ExperimentScale


@dataclass(frozen=True)
class Axis:
    """One sweepable dimension of the evaluation grid."""

    #: Canonical name: the ``params`` key of a record, ``--axis NAME=``.
    name: str
    #: Dedicated CLI flag (its ``dest`` is the flag with dashes folded).
    flag: str
    metavar: str
    help: str
    #: The field the axis sets — a ``FireLedgerConfig`` / ``ScenarioSpec``
    #: field, or the run's ``backend``; a point takes its value under it.
    keyword: str
    #: Value parser: ``int`` for sizes and counts, ``str`` for names.
    parse: Callable = int
    #: Value a scenario uses when the axis is not given and ``keyword`` is
    #: not a ``ScenarioSpec`` field (``backend`` belongs to the run, not to
    #: the spec); ``config_id`` drops an override equal to the default.
    default: object = None
    #: Row columns the axis shows up under.  They identify a configuration
    #: in the report's comparison table.
    columns: tuple[str, ...] = ()

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def scenario_default(self, spec) -> object:
        """The value ``spec`` runs with when this axis is not overridden."""
        if self.keyword in spec.__dataclass_fields__:
            return spec.scalar(self.keyword)
        return self.default


CLUSTER = Axis(
    "cluster_size", "--cluster-sizes", "N,N", "cluster sizes, e.g. 4,7,10",
    keyword="n_nodes", columns=("cluster_size", "n"))
BATCH = Axis(
    "batch_size", "--batch-sizes", "B,B", "block batch sizes, e.g. 10,1000",
    keyword="batch_size", columns=("batch_size", "batch"))
TX = Axis(
    "tx_size", "--tx-sizes", "S,S", "transaction sizes in bytes",
    keyword="tx_size", columns=("tx_size",))
WORKERS = Axis(
    "workers", "--workers", "W,W", "FireLedger workers per node",
    keyword="workers", columns=("workers",))
PROTOCOL = Axis(
    "protocol", "--protocol", "P,P",
    "consensus protocol(s) to run, e.g. fireledger,hotstuff,bftsmart "
    "(scenarios)",
    parse=str, keyword="protocol", columns=("protocol",))
LANES = Axis(
    "lanes", "--lanes", "M,M",
    "multiplexed consensus lane counts, e.g. 1,4 (scenarios)",
    keyword="lanes", columns=("lanes",))
BACKEND = Axis(
    "backend", "--backend", "B,B",
    "execution backend(s): sim (discrete-event, default) and/or realtime "
    "(live asyncio over loopback TCP; scenarios)",
    parse=str, keyword="backend", default="sim", columns=("backend",))
ADVERSARY = Axis(
    "adversary", "--adversary", "A,A",
    "adversary strategy(ies) for a scenario's Byzantine nodes, e.g. "
    "equivocate,churn (see 'list'; scenarios)",
    parse=str, keyword="adversary", columns=("adversary",))

#: The axis table, in CLI / ``--help`` order.  Everything that needs "every
#: axis" iterates this; adding an entry is all it takes to add an axis to the
#: CLI and to every scenario (a figure takes it once its grid names it).
AXES: dict[str, Axis] = {axis.name: axis for axis in (
    CLUSTER, BATCH, TX, WORKERS, PROTOCOL, LANES, BACKEND, ADVERSARY)}


#: The axes a scenario does not take: its block shape stays the spec's.
_FIGURE_ONLY = (BATCH, TX)


@dataclass(frozen=True)
class ExperimentSpec:
    """A runnable, sweepable experiment: one point function over one grid."""

    name: str
    #: ``point(scale, **{axis.keyword: value})`` runs one grid point and
    #: returns its rows.
    point: Callable[..., list]
    title: str
    #: The axes the experiment accepts, outermost first, each mapped to its
    #: default values at a scale.
    grid: Mapping[str, Callable[[ExperimentScale], Sequence]] = field(
        default_factory=dict)
    #: True for drivers that measure host quantities (``memfootprint``'s
    #: peak memory, ``calibrate``'s live half).  Such drivers must not share
    #: the machine with concurrent workers, so ``run --all --jobs N`` keeps
    #: them out of the worker pool.
    wall_clock: bool = False
    #: True for drivers that pin their own simulated duration/warmup
    #: (scenarios: fault phase times are absolute simulated seconds), so
    #: they read only the seed off the scale.  The CLI notes that it ignores
    #: ``--duration``/``--warmup`` for them, and ``config_id`` hashes only
    #: the seed of their scale.
    pins_duration: bool = False
    #: Axis values the driver already uses by default.  ``config_id``
    #: canonicalizes an explicit override that equals the default out of the
    #: hash payload, so ``--axis protocol=fireledger`` resumes against (and
    #: never double-records) the bare run of a fireledger-default scenario.
    axis_defaults: Mapping[str, object] = field(default_factory=dict)

    @property
    def description(self) -> str:
        """First docstring line of the point function."""
        doc = self.point.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    def normalize_axis_values(
            self, axis_values: Optional[Mapping[str, Sequence]],
    ) -> dict[str, tuple]:
        """Validate axis names and return each axis's values as a tuple.

        Axis values are usually ints; the ``protocol`` axis carries
        protocol-name strings (a bare string counts as one value, not a
        character sequence).
        """
        normalized: dict[str, tuple] = {}
        for axis, values in sorted((axis_values or {}).items()):
            if axis not in self.grid:
                supported = ", ".join(sorted(self.grid)) or "(none)"
                raise ValueError(
                    f"experiment {self.name!r} has no {axis!r} axis; "
                    f"supported axes: {supported}")
            values = (values,) if isinstance(values, str) else tuple(values)
            if not values:
                raise ValueError(f"axis {axis!r} needs at least one value")
            normalized[axis] = values
        return normalized

    def run(self, scale: Optional[ExperimentScale] = None,
            axis_values: Optional[Mapping[str, Sequence]] = None) -> list[dict]:
        """Run every point of the grid at ``scale``, in grid order.

        ``axis_values`` maps canonical axis names to the values to run; an
        axis it does not name runs its default values at ``scale``.
        """
        scale = scale or ExperimentScale()
        given = self.normalize_axis_values(axis_values)
        keywords = [AXES[name].keyword for name in self.grid]
        values = [given[name] if name in given else default(scale)
                  for name, default in self.grid.items()]
        rows: list[dict] = []
        for combo in itertools.product(*values):
            rows.extend(self.point(scale, **dict(zip(keywords, combo))))
        return rows


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """Look up a spec by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"known: {', '.join(names())}") from None


def names() -> list[str]:
    """Registered experiment names, in paper order."""
    return list(_REGISTRY)


def specs() -> list[ExperimentSpec]:
    return list(_REGISTRY.values())


def _from_scale(field_name: str, cap: Optional[int] = None) -> Callable:
    """Default values read off the scale: its ``field_name`` tuple, the
    first ``cap`` of them."""
    return lambda scale: getattr(scale, field_name)[:cap]


def _fixed(*values) -> Callable:
    """Default values that are the same at every scale."""
    return lambda scale: values


_CLUSTER_SIZES = _from_scale("cluster_sizes")
_BATCH_SIZES = _from_scale("batch_sizes")
_TX_SIZES = _from_scale("tx_sizes")
_WORKERS = _from_scale("workers_sweep")
#: fig10/11/12 default to two worker counts to bound simulation cost.
_TWO_WORKERS = _from_scale("workers_sweep", 2)


def _scenario_defaults(spec, axes) -> dict[str, object]:
    """Each of ``axes`` (by name, sorted) -> the value ``spec`` runs with."""
    return {axis.name: axis.scenario_default(spec)
            for axis in sorted(axes, key=lambda axis: axis.name)}


def _own_values(defaults: Mapping[str, object]) -> dict[str, Callable]:
    """The grid whose every axis defaults to the one given value."""
    return {name: _fixed(value) for name, value in defaults.items()}


def _register_all() -> None:
    from repro.scenarios import library as scenario_library

    for name, point, title, grid in (
        ("table1", figures.table1_costs,
         "Table 1 — protocol costs per operating mode", {}),
        ("fig05", figures.figure05_signature_rate,
         "Figure 5 — signature generation rate",
         {"batch_size": _BATCH_SIZES, "tx_size": _TX_SIZES,
          "workers": _WORKERS}),
        ("fig06", figures.figure06_bps_single_dc,
         "Figure 6 — blocks/sec, single data center",
         {"cluster_size": _CLUSTER_SIZES, "workers": _WORKERS}),
        ("fig07", figures.figure07_tps_single_dc,
         "Figure 7 — transactions/sec, single data center",
         {"cluster_size": _CLUSTER_SIZES, "batch_size": _BATCH_SIZES,
          "tx_size": _TX_SIZES, "workers": _WORKERS}),
        ("fig08", figures.figure08_latency_cdf,
         "Figure 8 — block delivery latency",
         {"cluster_size": _CLUSTER_SIZES, "workers": _WORKERS,
          "batch_size": _BATCH_SIZES}),
        ("fig09", figures.figure09_latency_breakdown,
         "Figure 9 — latency breakdown across round events",
         {"cluster_size": _CLUSTER_SIZES, "workers": _WORKERS}),
        ("fig10", figures.figure10_scalability,
         "Figure 10 — scalability to large clusters",
         {"cluster_size": _fixed(100), "batch_size": _BATCH_SIZES,
          "workers": _TWO_WORKERS}),
        ("fig11", figures.figure11_crash_failures,
         "Figure 11 — throughput under crash failures",
         {"cluster_size": _CLUSTER_SIZES, "batch_size": _BATCH_SIZES,
          "workers": _TWO_WORKERS}),
        ("fig12", figures.figure12_byzantine_failures,
         "Figure 12 — throughput under Byzantine equivocation",
         {"cluster_size": _CLUSTER_SIZES, "batch_size": _BATCH_SIZES,
          "workers": _TWO_WORKERS}),
        ("fig13", figures.figure13_bps_multi_dc,
         "Figure 13 — blocks/sec, geo-distributed",
         {"cluster_size": _CLUSTER_SIZES, "workers": _WORKERS}),
        ("fig14", figures.figure14_tps_multi_dc,
         "Figure 14 — transactions/sec, geo-distributed",
         {"cluster_size": _CLUSTER_SIZES, "batch_size": _BATCH_SIZES,
          "workers": _WORKERS}),
        ("fig15", figures.figure15_latency_multi_dc,
         "Figure 15 — block latency, geo-distributed",
         {"cluster_size": _CLUSTER_SIZES, "workers": _WORKERS,
          "batch_size": _BATCH_SIZES}),
        ("fig16", figures.figure16_vs_hotstuff, "Figure 16 — FLO vs HotStuff",
         {"cluster_size": _fixed(*figures.C5_CLUSTER_SIZES),
          "tx_size": _fixed(*figures.C5_TX_SIZES)}),
        ("fig17", figures.figure17_vs_bftsmart, "Figure 17 — FLO vs BFT-SMaRt",
         {"cluster_size": _fixed(*figures.C5_CLUSTER_SIZES),
          "tx_size": _fixed(*figures.C5_TX_SIZES)}),
    ):
        register(ExperimentSpec(name=name, point=point, title=title,
                                grid=grid))
    register(ExperimentSpec(
        name="memfootprint", point=memory.memory_footprint,
        title="Memory footprint — bounded retention vs keep-everything",
        grid={"cluster_size": _fixed(4)}, wall_clock=True))
    register(ExperimentSpec(
        name="calibrate", point=calibrate.calibrate_backends,
        title="Calibration — live realtime backend vs the simulator",
        grid=_own_values(_scenario_defaults(
            scenario_library.get(calibrate.SCENARIO),
            (CLUSTER, WORKERS, PROTOCOL, LANES))),
        wall_clock=True, pins_duration=True))
    _register_scenarios(scenario_library)


def _register_scenarios(scenario_library) -> None:
    """Register every shipped declarative scenario as ``scenario:<name>``.

    A scenario takes every axis but :data:`_FIGURE_ONLY`, each defaulting to
    the spec's own value, so ``repro sweep scenario:<name> --cluster-sizes
    4,7``, ``--protocol fireledger,hotstuff``, ``--lanes 1,4`` and
    ``--adversary equivocate,churn`` sweep the same spec with the usual
    resume/--jobs machinery.
    """
    from repro.scenarios.runner import run_scenario

    axes = [axis for axis in AXES.values() if axis not in _FIGURE_ONLY]
    for name in scenario_library.names():
        spec = scenario_library.get(name)
        point = partial(run_scenario, spec)
        point.__doc__ = spec.description
        defaults = _scenario_defaults(spec, axes)
        register(ExperimentSpec(
            name=scenario_library.PREFIX + name,
            point=point,
            title=f"Scenario — {name}",
            grid=_own_values(defaults),
            pins_duration=True,
            # What the spec itself (and backend=sim) already says is
            # canonicalized out of config_id, so the bare run and the
            # explicit ``--backend sim`` / default-adversary spellings are
            # one configuration.
            axis_defaults=defaults))


_register_all()
