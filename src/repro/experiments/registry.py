"""Registry of experiment drivers, and the one table of sweep axes.

Every table/figure driver in :mod:`repro.experiments.figures` is registered
here under a short stable name (``table1``, ``fig05`` ... ``fig17``), next
to the host-side drivers and one ``scenario:<name>`` entry per shipped
scenario.  The registry is the single front door used by the CLI
(``python -m repro``), the sweep engine, the pytest benchmarks and the
examples.

:data:`AXES` is the one declaration of what a sweep axis *is*: the CLI flags,
``--axis NAME=`` parsing, the scenario drivers' overrides and ``config_id``
defaults, and the report's echo suppression and identity columns are all
loops or lookups over it.  Which axes a given driver sweeps is read off the
driver itself (:func:`driver_axes`) — its declared figure grid and its
signature — so callers can say "cluster_size = 7" uniformly whether the
driver iterates ``ExperimentScale.cluster_sizes``, takes ``n_nodes`` as a
scalar keyword (``fig10``) or takes a ``cluster_sizes`` tuple (``fig16``).
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field, replace
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
    #: Value parser: ``int`` for sizes and counts, ``str`` for names.
    parse: Callable = int
    #: The ``ExperimentScale`` tuple a figure grid iterates for this axis;
    #: a driver parameter of the same name takes the whole tuple.
    scale_field: Optional[str] = None
    #: The scalar keyword a driver takes for this axis (run once per value).
    #: For a scenario it names the ``ScenarioSpec`` field it overrides.
    keyword: Optional[str] = None
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
    scale_field="cluster_sizes", keyword="n_nodes",
    columns=("cluster_size", "n"))
BATCH = Axis(
    "batch_size", "--batch-sizes", "B,B", "block batch sizes, e.g. 10,1000",
    scale_field="batch_sizes", columns=("batch_size", "batch"))
TX = Axis(
    "tx_size", "--tx-sizes", "S,S", "transaction sizes in bytes",
    scale_field="tx_sizes", columns=("tx_size",))
WORKERS = Axis(
    "workers", "--workers", "W,W", "FireLedger workers per node",
    scale_field="workers_sweep", keyword="workers", columns=("workers",))
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
#: axis" iterates this; adding an entry is all it takes to add an axis.
AXES: dict[str, Axis] = {axis.name: axis for axis in (
    CLUSTER, BATCH, TX, WORKERS, PROTOCOL, LANES, BACKEND, ADVERSARY)}


def keyword_axes(*axes: Axis) -> dict[str, str]:
    """Bindings of a driver that forwards ``**overrides`` to a scenario.

    Such a driver's signature names no axis, so its registration says which
    it takes: every axis with a scalar keyword by default.
    """
    return {axis.name: "scalar" for axis in axes or AXES.values()
            if axis.keyword}


def driver_axes(func: Callable) -> dict[str, str]:
    """The axes ``func`` sweeps and how a value reaches it, read off ``func``.

    ``"scalar"`` — a parameter named like the axis keyword (``fig10``'s
    ``n_nodes``): run once per value and concatenate the rows;
    ``"tuple"`` — a parameter named like the scale tuple (``fig16``'s
    ``cluster_sizes``): pass every value at once; ``"scale"`` — the driver's
    declared figure grid (``func.grid``) iterates the scale tuple: replace
    it on the ``ExperimentScale``.
    """
    params = inspect.signature(func).parameters
    grid = getattr(func, "grid", ())
    bound: dict[str, str] = {}
    for name, axis in AXES.items():
        if axis.keyword in params:
            bound[name] = "scalar"
        elif axis.scale_field in params:
            bound[name] = "tuple"
        elif axis.scale_field in grid:
            bound[name] = "scale"
    return bound


@dataclass(frozen=True)
class ExperimentSpec:
    """A runnable, sweepable experiment driver."""

    name: str
    func: Callable[..., list]
    title: str
    #: Axis name -> binding kind; read off the driver unless given.
    axes: Optional[Mapping[str, str]] = None
    #: True for drivers that measure host quantities (``memfootprint``'s
    #: peak memory, ``calibrate``'s live half).  Such drivers must not share
    #: the machine with concurrent workers, so ``run --all --jobs N`` keeps
    #: them out of the worker pool.
    wall_clock: bool = False
    #: True for drivers that pin their own simulated duration/warmup
    #: (scenarios: fault phase times are absolute simulated seconds).  The
    #: CLI ignores ``--duration``/``--warmup`` for them — with a note — and
    #: keeps the ignored values out of the recorded ``config_id``.
    pins_duration: bool = False
    #: Axis values the driver already uses by default.  ``config_id``
    #: canonicalizes an explicit override that equals the default out of the
    #: hash payload, so ``--axis protocol=fireledger`` resumes against (and
    #: never double-records) the bare run of a fireledger-default scenario.
    axis_defaults: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.axes is None:
            object.__setattr__(self, "axes", driver_axes(self.func))

    @property
    def description(self) -> str:
        """First docstring line of the underlying driver."""
        doc = self.func.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    def normalize_axis_values(
            self, axis_values: Optional[Mapping[str, Sequence]],
    ) -> dict[str, tuple]:
        """Validate axis names and truncate values past the grid's cap.

        Returns the values that will actually reach the driver, which is what
        callers should record: fig10/11/12 consume at most two worker counts
        (``func.caps``), so overrides are truncated up front.  Axis values
        are usually ints; the ``protocol`` axis carries protocol-name strings
        (a bare string counts as one value, not a character sequence).
        """
        caps = getattr(self.func, "caps", {})
        normalized: dict[str, tuple] = {}
        for axis, values in sorted((axis_values or {}).items()):
            if axis not in self.axes:
                supported = ", ".join(sorted(self.axes)) or "(none)"
                raise ValueError(
                    f"experiment {self.name!r} has no {axis!r} axis; "
                    f"supported axes: {supported}")
            values = (values,) if isinstance(values, str) else tuple(values)
            if not values:
                raise ValueError(f"axis {axis!r} needs at least one value")
            normalized[axis] = values[:caps.get(AXES[axis].scale_field)]
        return normalized

    def run(self, scale: Optional[ExperimentScale] = None,
            axis_values: Optional[Mapping[str, Sequence]] = None) -> list[dict]:
        """Run the driver at ``scale`` with per-axis value overrides.

        ``axis_values`` maps canonical axis names to the values to use.  Scale
        axes replace the corresponding sweep tuple; scalar keyword axes run
        the driver once per value and concatenate the rows.
        """
        scale = scale or ExperimentScale()
        kwargs: dict = {}
        scalars: dict[str, tuple] = {}
        for name, values in self.normalize_axis_values(axis_values).items():
            axis, kind = AXES[name], self.axes[name]
            if kind == "scale":
                scale = replace(scale, **{axis.scale_field: values})
            elif kind == "tuple":
                kwargs[axis.scale_field] = values
            else:
                scalars[axis.keyword] = values
        rows: list[dict] = []
        for combo in itertools.product(*scalars.values()):
            rows.extend(self.func(scale, **kwargs, **dict(zip(scalars, combo))))
        return rows


_REGISTRY: dict[str, ExperimentSpec] = {}
_BY_FUNC_NAME: dict[str, str] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    _BY_FUNC_NAME[spec.func.__name__] = spec.name
    return spec


def get(name: str) -> ExperimentSpec:
    """Look up a spec by registry name (or by driver function name)."""
    key = name if name in _REGISTRY else _BY_FUNC_NAME.get(name, name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"known: {', '.join(names())}") from None


def names() -> list[str]:
    """Registered experiment names, in paper order."""
    return list(_REGISTRY)


def specs() -> list[ExperimentSpec]:
    return list(_REGISTRY.values())


def resolve(driver: "str | Callable") -> ExperimentSpec:
    """Accept either a registry name or a registered driver callable."""
    if callable(driver):
        return get(driver.__name__)
    return get(driver)


def _register_all() -> None:
    for name, func, title in (
        ("table1", figures.table1_costs,
         "Table 1 — protocol costs per operating mode"),
        ("fig05", figures.figure05_signature_rate,
         "Figure 5 — signature generation rate"),
        ("fig06", figures.figure06_bps_single_dc,
         "Figure 6 — blocks/sec, single data center"),
        ("fig07", figures.figure07_tps_single_dc,
         "Figure 7 — transactions/sec, single data center"),
        ("fig08", figures.figure08_latency_cdf,
         "Figure 8 — block delivery latency"),
        ("fig09", figures.figure09_latency_breakdown,
         "Figure 9 — latency breakdown across round events"),
        ("fig10", figures.figure10_scalability,
         "Figure 10 — scalability to large clusters"),
        ("fig11", figures.figure11_crash_failures,
         "Figure 11 — throughput under crash failures"),
        ("fig12", figures.figure12_byzantine_failures,
         "Figure 12 — throughput under Byzantine equivocation"),
        ("fig13", figures.figure13_bps_multi_dc,
         "Figure 13 — blocks/sec, geo-distributed"),
        ("fig14", figures.figure14_tps_multi_dc,
         "Figure 14 — transactions/sec, geo-distributed"),
        ("fig15", figures.figure15_latency_multi_dc,
         "Figure 15 — block latency, geo-distributed"),
        ("fig16", figures.figure16_vs_hotstuff, "Figure 16 — FLO vs HotStuff"),
        ("fig17", figures.figure17_vs_bftsmart, "Figure 17 — FLO vs BFT-SMaRt"),
    ):
        register(ExperimentSpec(name=name, func=func, title=title))
    register(ExperimentSpec(
        name="memfootprint", func=memory.memory_footprint,
        title="Memory footprint — bounded retention vs keep-everything",
        wall_clock=True))
    register(ExperimentSpec(
        name="calibrate", func=calibrate.calibrate_backends,
        title="Calibration — live realtime backend vs the simulator",
        axes=keyword_axes(CLUSTER, WORKERS, PROTOCOL, LANES),
        wall_clock=True, pins_duration=True))
    _register_scenarios()


def _register_scenarios() -> None:
    """Register every shipped declarative scenario as ``scenario:<name>``.

    Scenario drivers take every keyword axis, so ``repro sweep
    scenario:<name> --cluster-sizes 4,7``, ``--protocol
    fireledger,hotstuff``, ``--lanes 1,4`` and ``--adversary
    equivocate,churn`` sweep the same spec with the usual resume/--jobs
    machinery.
    """
    from repro.scenarios import library as scenario_library

    axes = keyword_axes()
    for name in scenario_library.names():
        spec = scenario_library.get(name)
        register(ExperimentSpec(
            name=scenario_library.PREFIX + name,
            func=scenario_library.driver_for(spec),
            title=f"Scenario — {name}",
            axes=axes,
            pins_duration=True,
            # What the spec itself (and backend=sim) already says is
            # canonicalized out of config_id, so the bare run and the
            # explicit ``--backend sim`` / default-adversary spellings are
            # one configuration.
            axis_defaults={axis: AXES[axis].scenario_default(spec)
                           for axis in axes}))


_register_all()
