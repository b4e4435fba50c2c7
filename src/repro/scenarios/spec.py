"""Declarative scenario specs: topology x workload x faults in one object.

A :class:`ScenarioSpec` composes three orthogonal dimensions —

* :class:`TopologySpec` — where the nodes live: the paper's LAN, the paper's
  ten-region WAN, or an arbitrary multi-region WAN with per-link latency and
  bandwidth matrices (compiled to a
  :class:`~repro.net.latency.WanTopologyLatency`);
* :class:`WorkloadSpec` — how load arrives: saturated blocks (the paper's
  mode), open-loop Poisson clients, closed-loop clients, bursty or ramped
  arrival rates, optionally hotspot-skewed across nodes;
* :class:`~repro.scenarios.faultplan.FaultSchedule` — what goes wrong and
  when: timed crash/recover, partition / loss / slow-link windows, Byzantine
  membership.

Every spec is a frozen dataclass buildable from plain dicts
(:meth:`ScenarioSpec.from_dict`) or TOML text (:meth:`ScenarioSpec.from_toml`,
Python >= 3.11), so adding a scenario is spec-writing, not code-writing.
Parsing is field-driven (:func:`_coerce`): a block's annotations say which
fields hold a nested block, a tuple of blocks or key/value pairs, so adding
a field or a block needs no parsing code — only its ``__post_init__`` range
checks, which validate outside input and stay hand-written.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Mapping, Optional, get_args, get_type_hints

from repro.net.latency import (
    GeoDistributedLatency,
    LatencyModel,
    SingleDatacenterLatency,
    WanTopologyLatency,
)
from repro.scenarios.faultplan import FaultSchedule
from repro.workload.clients import (
    BurstRate,
    ClientWorkload,
    ClosedLoopClient,
    ConstantRate,
    OpenLoopClient,
    RampRate,
    TransferModel,
    hotspot_weights,
)

TOPOLOGY_KINDS = ("lan", "paper-geo", "regions")
WORKLOAD_SHAPES = ("saturated", "open-loop", "closed-loop", "bursty", "ramp")


def _block_parser(cls, shorthand: Optional[str]) -> Callable:
    """Parser of one nested block: an instance, a mapping or a shorthand.

    A bare (non-mapping) value stands for the block's ``shorthand`` field —
    ``lanes = 4``, ``adversary = "churn"``, ``faults = [...]``.
    """
    build = getattr(cls, "from_dict", None) or functools.partial(_parse, cls)

    def parse(value):
        if isinstance(value, cls):
            return value
        if shorthand is not None and not isinstance(value, Mapping):
            value = {shorthand: value}
        return build(value)

    return parse


def _each(parse: Callable, values) -> tuple:
    return tuple(map(parse, values))


def _pairs(value) -> tuple:
    """Key/value pairs from a mapping (sorted) or an iterable of pairs."""
    if isinstance(value, Mapping):
        return tuple(sorted(value.items()))
    return tuple((key, item) for key, item in value)


@functools.cache
def _schema(cls) -> dict[str, Optional[Callable]]:
    """Field name -> value parser (None = take as is), built once per class.

    Read off the annotations: a dataclass-typed field is a nested block (its
    ``shorthand`` metadata names the field a bare value stands for),
    ``tuple[Block, ...]`` a tuple of blocks and ``tuple[tuple[str, Any],
    ...]`` key/value pairs.
    """
    hints = get_type_hints(cls)
    schema: dict[str, Optional[Callable]] = {}
    for spec_field in fields(cls):
        hint = hints[spec_field.name]
        item = get_args(hint)[0] if get_args(hint)[1:] == (Ellipsis,) else None
        if is_dataclass(hint):
            parser = _block_parser(hint, spec_field.metadata.get("shorthand"))
        elif is_dataclass(item):
            parser = functools.partial(_each, _block_parser(item, None))
        elif item is not None and get_args(item):
            parser = _pairs
        else:
            parser = None
        schema[spec_field.name] = parser
    return schema


def _coerce(cls, data: Mapping) -> dict:
    """``data`` as constructor keywords of dataclass ``cls``.

    Rejects keys that are not fields and parses nested values per
    :func:`_schema`; range checks are the constructor's (``__post_init__``).
    """
    schema = _schema(cls)
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    return {key: value if schema[key] is None else schema[key](value)
            for key, value in data.items()}


def _parse(cls, data: Mapping):
    return cls(**_coerce(cls, data))


class _Block:
    """A spec block: a frozen dataclass buildable from a plain mapping."""

    @classmethod
    def from_dict(cls, data: Mapping):
        """Build the block from nested plain dicts (the TOML document shape)."""
        return _parse(cls, data)


# ------------------------------------------------------------------ topology
@dataclass(frozen=True)
class RegionSpec(_Block):
    """One region of a WAN topology."""

    name: str
    #: Nodes placed here when the cluster size matches the topology's total.
    nodes: int = 1
    #: Intra-region one-way delay in milliseconds.
    local_ms: float = 0.25

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("a region hosts at least one node")
        if self.local_ms < 0:
            raise ValueError("local_ms must be non-negative")


@dataclass(frozen=True)
class LinkSpec(_Block):
    """One inter-region link: symmetric one-way delay, optional bandwidth."""

    a: str
    b: str
    one_way_ms: float
    bandwidth_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.one_way_ms < 0:
            raise ValueError("one_way_ms must be non-negative")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")


@dataclass(frozen=True)
class TopologySpec(_Block):
    """Where the cluster's nodes are placed and what links cost.

    ``kind``:

    * ``"lan"`` — the paper's single data-center
      (:class:`~repro.net.latency.SingleDatacenterLatency`);
    * ``"paper-geo"`` — the paper's ten-AWS-region matrix
      (:class:`~repro.net.latency.GeoDistributedLatency`);
    * ``"regions"`` — explicit :attr:`regions` + :attr:`links`, compiled to a
      :class:`~repro.net.latency.WanTopologyLatency`.  When the cluster size
      equals the topology's total node count, nodes fill regions in order;
      otherwise they are placed round-robin so the same topology can run at
      any cluster size.
    """

    kind: str = "lan"
    regions: tuple[RegionSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    #: Fallback one-way delay for region pairs without an explicit link.
    default_one_way_ms: float = 40.0
    #: Fallback per-link bandwidth (None = latency-bound only).
    default_bandwidth_mbps: Optional[float] = None
    jitter: float = 0.08

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}; "
                             f"known: {', '.join(TOPOLOGY_KINDS)}")
        if self.kind == "regions":
            if not self.regions:
                raise ValueError("a 'regions' topology needs regions")
            names = [region.name for region in self.regions]
            if len(set(names)) != len(names):
                raise ValueError("region names must be unique")
            seen_pairs: set[frozenset] = set()
            for link in self.links:
                for end in (link.a, link.b):
                    if end not in names:
                        raise ValueError(f"link references unknown region {end!r}")
                if link.a == link.b:
                    raise ValueError(
                        f"link {link.a!r}-{link.b!r} connects a region to "
                        f"itself; set the region's local_ms instead")
                pair = frozenset((link.a, link.b))
                if pair in seen_pairs:
                    raise ValueError(
                        f"duplicate link for regions {link.a!r}-{link.b!r} "
                        f"(links are symmetric; specify each pair once)")
                seen_pairs.add(pair)

    def assignment(self, n_nodes: int) -> tuple[str, ...]:
        """Region name per node id for a cluster of ``n_nodes``."""
        if self.kind != "regions":
            raise ValueError("only 'regions' topologies place nodes explicitly")
        total = sum(region.nodes for region in self.regions)
        if n_nodes == total:
            placed: list[str] = []
            for region in self.regions:
                placed.extend([region.name] * region.nodes)
            return tuple(placed)
        names = [region.name for region in self.regions]
        return tuple(names[i % len(names)] for i in range(n_nodes))

    def build(self, n_nodes: int) -> LatencyModel:
        """Compile this topology into a latency model for ``n_nodes``."""
        if self.kind == "lan":
            return SingleDatacenterLatency()
        if self.kind == "paper-geo":
            return GeoDistributedLatency(jitter=self.jitter)
        one_way = {frozenset((link.a, link.b)): link.one_way_ms * 1e-3
                   for link in self.links}
        bandwidth = {frozenset((link.a, link.b)): link.bandwidth_mbps * 125_000.0
                     for link in self.links if link.bandwidth_mbps is not None}
        default_bw = (self.default_bandwidth_mbps * 125_000.0
                      if self.default_bandwidth_mbps is not None else None)
        return WanTopologyLatency(
            assignment=self.assignment(n_nodes),
            one_way_s=one_way,
            local_one_way={r.name: r.local_ms * 1e-3 for r in self.regions},
            default_one_way=self.default_one_way_ms * 1e-3,
            bandwidth_bps=bandwidth,
            default_bandwidth_bps=default_bw,
            jitter=self.jitter)

    def summary(self) -> str:
        if self.kind == "lan":
            return "single data-center LAN"
        if self.kind == "paper-geo":
            return "paper's ten-AWS-region WAN"
        parts = ", ".join(f"{r.name}({r.nodes})" for r in self.regions)
        capped = sum(1 for link in self.links if link.bandwidth_mbps is not None)
        suffix = f", {capped} bandwidth-capped link(s)" if capped else ""
        return f"{len(self.regions)}-region WAN [{parts}]{suffix}"


# ------------------------------------------------------------------ workload
@dataclass(frozen=True)
class WorkloadSpec(_Block):
    """How transactions arrive at the cluster.

    ``shape``:

    * ``"saturated"`` — the paper's mode: every block topped up with
      synthetic transactions, no explicit clients;
    * ``"open-loop"`` — ``n_clients`` Poisson clients at ``rate_per_client``;
    * ``"closed-loop"`` — ``n_clients`` clients with one request in flight
      each, thinking ``think_time`` seconds between requests;
    * ``"bursty"`` — open-loop whose rate alternates between
      ``rate_per_client`` and ``burst_factor * rate_per_client`` with period
      ``burst_period`` and duty cycle ``burst_duty``;
    * ``"ramp"`` — open-loop whose rate ramps from ``rate_per_client`` to
      ``ramp_factor * rate_per_client`` over ``ramp_time`` seconds.

    ``hotspot_skew`` > 0 skews every non-saturated shape's node choice
    toward low-numbered nodes (Zipf-like, node 0 hottest).
    """

    shape: str = "saturated"
    n_clients: int = 0
    rate_per_client: float = 200.0
    tx_size: int = 512
    think_time: float = 0.01
    burst_factor: float = 10.0
    burst_period: float = 0.4
    burst_duty: float = 0.25
    ramp_factor: float = 10.0
    ramp_time: float = 1.0
    hotspot_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.shape not in WORKLOAD_SHAPES:
            raise ValueError(f"unknown workload shape {self.shape!r}; "
                             f"known: {', '.join(WORKLOAD_SHAPES)}")
        if self.shape != "saturated" and self.n_clients < 1:
            raise ValueError(f"{self.shape} workload needs n_clients >= 1")
        if self.rate_per_client <= 0:
            raise ValueError("rate_per_client must be positive")
        if self.tx_size <= 0:
            raise ValueError("tx_size must be positive")
        if self.hotspot_skew < 0:
            raise ValueError("hotspot_skew must be non-negative")

    @property
    def fill_blocks(self) -> bool:
        """Whether the cluster should run in saturated-block mode."""
        return self.shape == "saturated"

    def _rate_shape(self):
        if self.shape == "bursty":
            return BurstRate(base=self.rate_per_client,
                             burst=self.rate_per_client * self.burst_factor,
                             period=self.burst_period, duty=self.burst_duty)
        if self.shape == "ramp":
            return RampRate(start=self.rate_per_client,
                            end=self.rate_per_client * self.ramp_factor,
                            ramp_time=self.ramp_time)
        return ConstantRate(self.rate_per_client)

    def build(self, env, nodes, seed: int = 0,
              execution: "Optional[ExecutionSpec]" = None) -> Optional[ClientWorkload]:
        """Attach this workload's client population (None when saturated).

        With an enabled ``execution`` spec the clients emit structured
        transfers (seeded per client) instead of opaque payloads.
        """
        if self.shape == "saturated":
            return None
        import random

        rng = random.Random(seed ^ 0x5CE7A310)
        weights = (hotspot_weights(len(nodes), self.hotspot_skew)
                   if self.hotspot_skew else None)
        clients = []
        for client_id in range(self.n_clients):
            client_rng = random.Random(rng.randrange(2 ** 62))
            transfers = None
            if execution is not None and execution.enabled:
                transfers = execution.transfer_model(
                    client_id, random.Random(client_rng.randrange(2 ** 62)))
            if self.shape == "closed-loop":
                clients.append(ClosedLoopClient(
                    env, client_id, nodes, think_time=self.think_time,
                    tx_size=self.tx_size, rng=client_rng, weights=weights,
                    transfers=transfers))
            else:
                clients.append(OpenLoopClient(
                    env, client_id, nodes, self._rate_shape(),
                    tx_size=self.tx_size, rng=client_rng, weights=weights,
                    transfers=transfers))
        workload = ClientWorkload.from_clients(env, clients)
        workload.start()
        return workload

    def summary(self) -> str:
        if self.shape == "saturated":
            return "saturated blocks (paper mode)"
        base = f"{self.n_clients} {self.shape} client(s)"
        if self.shape == "closed-loop":
            base += f", think {self.think_time:g}s"
        elif self.shape == "bursty":
            base += (f" at {self.rate_per_client:g} tx/s bursting x"
                     f"{self.burst_factor:g} every {self.burst_period:g}s")
        elif self.shape == "ramp":
            base += (f" ramping {self.rate_per_client:g} -> "
                     f"{self.rate_per_client * self.ramp_factor:g} tx/s "
                     f"over {self.ramp_time:g}s")
        else:
            base += f" at {self.rate_per_client:g} tx/s"
        if self.hotspot_skew:
            base += f", hotspot skew {self.hotspot_skew:g}"
        return base


# ----------------------------------------------------------------- execution
@dataclass(frozen=True)
class ExecutionSpec(_Block):
    """Execution-layer knobs: the account state machine applied at delivery.

    ``enabled`` turns on per-node execution and the cross-node ``state_root``
    oracle for the scenario (every protocol).  Client-driven workloads then
    emit structured transfers: each client owns sender account ``client_id %
    n_accounts`` with a local nonce counter, recipients drawn with
    ``recipient_skew`` (Zipf-like, account 0 hottest — real read-write
    conflicts for hotspot scenarios) and amounts in ``[0, max_amount]``.
    Running more clients than accounts makes clients share senders, whose
    colliding nonce counters create the stale-rejection traffic the fairness
    counters report.  Saturated workloads execute opaque blocks only — the
    root then oracles pure delivery-order agreement.
    """

    enabled: bool = False
    n_accounts: int = 64
    initial_balance: int = 100_000
    max_amount: int = 1_000
    recipient_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.n_accounts < 1:
            raise ValueError("n_accounts must be >= 1")
        if self.initial_balance < 0:
            raise ValueError("initial_balance must be >= 0")
        if self.max_amount < 0:
            raise ValueError("max_amount must be >= 0")
        if self.recipient_skew < 0:
            raise ValueError("recipient_skew must be non-negative")

    def transfer_model(self, client_id: int, rng) -> TransferModel:
        """The transfer stream of one client under this spec."""
        return TransferModel(client_id, self.n_accounts, rng,
                             max_amount=self.max_amount,
                             recipient_skew=self.recipient_skew)

    def summary(self) -> str:
        base = (f"{self.n_accounts} account(s), "
                f"balance {self.initial_balance}, "
                f"amounts <= {self.max_amount}")
        if self.recipient_skew:
            base += f", recipient skew {self.recipient_skew:g}"
        return base


# ----------------------------------------------------------------- retention
@dataclass(frozen=True)
class RetentionSpec(_Block):
    """The memory bound of long-horizon (soak) runs.

    ``chain_rounds`` is the rounds of history a node keeps: each worker's
    definite chain folds older blocks into a running
    :class:`~repro.ledger.chain.ChainSummary` and drops them, and the node's
    metrics recorder streams — a delivered record folds into bounded
    aggregates at once, an undelivered one after this many rounds.

    ``None`` (the default) keeps everything, the paper's exact-metrics
    behaviour; a value makes per-node state O(window) instead of O(run
    length).
    """

    chain_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.chain_rounds is not None and self.chain_rounds < 1:
            raise ValueError("chain_rounds must be >= 1 (or None)")

    @property
    def bounded(self) -> bool:
        """Whether the memory bound is active."""
        return self.chain_rounds is not None

    def summary(self) -> str:
        if not self.bounded:
            return "unbounded (keep everything)"
        return (f"chain pruned to, and metrics streamed past, "
                f"{self.chain_rounds} round(s)")


# ---------------------------------------------------------------------- pool
@dataclass(frozen=True)
class PoolSpec(_Block):
    """Transaction-pool admission knobs.

    ``max_pending`` caps the pending backlog (per worker for FireLedger, for
    the whole shared pool of a leader-driven baseline); submissions beyond it
    are rejected and counted (``tx_rejected`` in the result breakdown).
    ``None`` keeps the pool unbounded.
    """

    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")

    def summary(self) -> str:
        if self.max_pending is None:
            return "unbounded"
        return f"max {self.max_pending} pending"


# --------------------------------------------------------------------- lanes
@dataclass(frozen=True)
class LanesSpec(_Block):
    """Multiplexed consensus lanes (see :mod:`repro.protocols.multiplexed`).

    ``count`` independent instances of the scenario's protocol share the one
    simulated network, each ordering the (sender-hashed) slice of the
    workload assigned to it; their delivery streams merge round-robin into
    one total order.  1 = the classic single pipeline.
    """

    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("lanes count must be >= 1")

    def summary(self) -> str:
        return f"{self.count} multiplexed lane(s)"


# ----------------------------------------------------------------- adversary
@dataclass(frozen=True)
class AdversarySpec(_Block):
    """How the fault schedule's Byzantine nodes misbehave.

    ``strategy`` names a registered :mod:`repro.adversary` strategy; the
    default (``equivocate``) is the pre-adversary-layer behaviour — the
    paper's Section 7.4.2 equivocating proposer on FireLedger, fail-stop
    silence on the baselines.  ``params`` are extra keyword arguments for
    the strategy constructor (e.g. ``(("delay", 0.1),)`` for
    ``delayed-release``).  The spec is inert unless the scenario's fault
    schedule actually lists Byzantine nodes.
    """

    strategy: str = "equivocate"
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        from repro import adversary  # lazy: keeps spec importable standalone

        if self.strategy not in adversary.names():
            raise ValueError(f"unknown adversary strategy {self.strategy!r}; "
                             f"known: {', '.join(adversary.names())}")

    def build(self, nodes, windows=None):
        """Bind this spec to a Byzantine membership and its timed windows."""
        from repro import adversary

        return adversary.build(self.strategy, nodes=frozenset(nodes),
                               windows=windows, **dict(self.params))

    def summary(self) -> str:
        if not self.params:
            return self.strategy
        rendered = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.strategy} ({rendered})"


# ------------------------------------------------------------------ scenario
@dataclass(frozen=True)
class ScenarioSpec(_Block):
    """One named, fully declarative experiment scenario."""

    name: str
    description: str = ""
    #: Consensus protocol the scenario runs under — any name of the
    #: :mod:`repro.protocols` table (``fireledger``, ``hotstuff``, ``bftsmart``).
    #: The registry's ``protocol`` sweep axis overrides it per grid point.
    protocol: str = "fireledger"
    n_nodes: int = 4
    workers: int = 1
    batch_size: int = 100
    tx_size: int = 512
    #: Simulated run length / measurement warmup in seconds.  Scenarios pin
    #: their own durations (fault phase times are absolute), so the scale
    #: presets only contribute the seed.
    duration: float = 1.0
    warmup: float = 0.2
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: ``shorthand``: the block field a bare value stands for (``faults =
    #: [...]``, ``adversary = "churn"``, ``lanes = 4``), which is also the
    #: field a sweep axis reads and overrides (:meth:`scalar`).
    faults: FaultSchedule = field(default_factory=FaultSchedule,
                                  metadata={"shorthand": "phases"})
    #: How the fault schedule's Byzantine nodes misbehave (inert without any).
    adversary: AdversarySpec = field(default_factory=AdversarySpec,
                                     metadata={"shorthand": "strategy"})
    #: Account state machine applied at delivery (plus the state-root oracle).
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    #: Memory bounds for long-horizon runs (chain pruning, streamed metrics).
    retention: RetentionSpec = field(default_factory=RetentionSpec)
    #: Transaction-pool admission control (backlog cap + rejection counting).
    pool: PoolSpec = field(default_factory=PoolSpec)
    #: Multiplexed consensus lanes (1 = run the protocol unwrapped).
    lanes: LanesSpec = field(default_factory=LanesSpec,
                             metadata={"shorthand": "count"})
    #: Extra ``FireLedgerConfig`` fields, e.g. ``(("permute_every", 16),)``.
    #: None may shadow a field the spec sets (the run would not match its
    #: row) but the memory knobs ``retention_rounds`` / ``pool_max_pending``.
    config_overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        from repro import protocols  # lazy: keeps spec importable standalone
        from repro.core.config import FireLedgerConfig, max_faults

        overridden = {name for name, _ in self.config_overrides}
        unknown = sorted(overridden - {f.name for f in fields(FireLedgerConfig)})
        if unknown:
            raise ValueError(f"unknown config_overrides keys: {unknown}")
        clash = sorted(overridden & {"n_nodes", "workers", "batch_size", "tx_size",
                                     "fill_blocks", "execute_transactions", "lanes"})
        if clash:
            raise ValueError(f"config_overrides may not shadow first-class "
                             f"scenario fields {clash}; set them on the spec")

        if self.protocol not in protocols.names():
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"known: {', '.join(protocols.names())}")
        max_faults(self.n_nodes)  # every protocol's floor: n >= 4
        if self.duration <= 0 or not 0 <= self.warmup < self.duration:
            raise ValueError("require duration > 0 and 0 <= warmup < duration")
        self.faults.validate(self.n_nodes)

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        """Parse a TOML document (top-level scenario keys) into a spec.

        Requires :mod:`tomllib` (Python >= 3.11).  On older interpreters use
        :meth:`from_dict` with any dict source (JSON, literal, YAML...).
        """
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10 fallback
            raise RuntimeError(
                "TOML scenario files need Python >= 3.11 (tomllib); "
                "build the spec with ScenarioSpec.from_dict instead") from None
        return cls.from_dict(tomllib.loads(text))

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """Copy with selected fields replaced (used by sweep axes).

        Values are parsed like :meth:`from_dict` values, so a block takes
        its shorthand: ``with_overrides(lanes=4, adversary="churn")``.
        """
        return replace(self, **_coerce(type(self), overrides))

    def scalar(self, name: str):
        """Field ``name`` as one value: a block's shorthand field, else it."""
        shorthand = self.__dataclass_fields__[name].metadata.get("shorthand")
        value = getattr(self, name)
        return getattr(value, shorthand) if shorthand else value

    def summary(self) -> dict[str, str]:
        """The scenario dimensions as short strings, for the report renderer.

        The protocol, the three dimensions every scenario has, then every
        other block that differs from its default — except the adversary,
        which shows exactly when there are Byzantine nodes for it to drive.
        """
        summary = {"protocol": self.protocol}
        for spec_field in fields(self):
            block = getattr(self, spec_field.name)
            if not hasattr(block, "summary"):
                continue
            if spec_field.name == "adversary":
                shown = bool(self.faults.byzantine_nodes)
            else:
                shown = (spec_field.name in ("topology", "workload", "faults")
                         or block != spec_field.default_factory())
            if shown:
                summary[spec_field.name] = block.summary()
        return summary
