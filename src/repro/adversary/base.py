"""The pluggable adversary contract and its name registry.

An :class:`AdversaryStrategy` is everything
:func:`repro.core.cluster.run_cluster` needs to make a set of Byzantine
nodes misbehave under *any* protocol of :mod:`repro.protocols` (lanes
included) on either backend, without protocol-code changes.
The contract hooks the three seams every protocol already has:

* **outbound traffic** — :meth:`AdversaryStrategy.wrap_network` may return a
  proxy around the run's :class:`~repro.net.network.Network` that holds
  ``send``/``broadcast`` from Byzantine senders (delayed-release).  The
  default returns the network unchanged.  Dropping traffic is not a proxy's
  job: it is a window on the fault timeline (below).
* **proposal construction** — :meth:`AdversaryStrategy.worker_factory`
  may return a FireLedger worker factory substituting a misbehaving
  worker class on Byzantine nodes (the equivocation family).  ``None``
  (the default) keeps the protocol's stock workers.
* **the fault timeline** — :meth:`AdversaryStrategy.is_silent` marks nodes
  that ``run_cluster`` never starts and whose inbound traffic it drops at
  the network layer (the fail-stop under-approximation), and
  :meth:`AdversaryStrategy.timeline` adds phases to the run's one
  :class:`~repro.scenarios.faultplan.FaultSchedule`: timed crash/recover
  cycles (churn) and one-way partition windows (selective omission).

Strategies are registered by name (:func:`register` / :func:`get` /
:func:`names`) and built either directly or from a scenario's
``[adversary]`` spec block.  A strategy instance is bound to one run: it
holds the Byzantine membership, the (optional) timed activity windows
from the fault schedule, and the per-run counters it reports into
``ClusterResult.breakdown`` under ``adversary_``-prefixed keys.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

__all__ = ["AdversaryStrategy", "get", "names", "register", "build"]

#: Windows spelling: per node, a sequence of ``(at, until)`` pairs in
#: simulated seconds; ``math.inf`` as ``until`` means "to the end of the run".
Windows = Mapping[int, Sequence[tuple[float, float]]]


class AdversaryStrategy:
    """Base class: a no-op adversary bound to a set of Byzantine nodes."""

    #: Registry name (the ``--adversary`` value and the spec's ``strategy``).
    name: str = ""

    def __init__(self, nodes: frozenset[int] = frozenset(),
                 windows: Optional[Windows] = None) -> None:
        self.nodes = frozenset(nodes)
        self.windows: dict[int, tuple[tuple[float, float], ...]] = {
            node: tuple(spans) for node, spans in (windows or {}).items()}

    # ------------------------------------------------------------- the seams
    def wrap_network(self, network):
        """Return the network the protocols should build against.

        Delayed-release returns a proxy holding outbound ``send`` /
        ``broadcast`` from Byzantine senders; everything else returns
        ``network`` unchanged.  Called once, before the node factory runs,
        so every protocol message crosses the proxy.
        """
        return network

    def worker_factory(self):
        """A FireLedger worker factory substituting misbehaving workers.

        Only FLO nodes build workers, so only they consult it
        (:func:`repro.core.flo.flo_nodes`).  ``None`` keeps the stock worker
        class.
        """
        return None

    def is_silent(self, node_id: int, protocol_name: str) -> bool:
        """Whether ``node_id``'s protocol process should never run.

        ``protocol_name`` is the run's protocol-table name.  ``run_cluster``
        asks once per node, before it starts any: a silent node is not
        started and its endpoint's bindings are cleared, so its inbound
        traffic is dropped at the network layer like a crashed node's —
        for every protocol, lanes included, with no protocol code involved.
        """
        return False

    def timeline(self, duration: float):
        """The fault phases the strategy adds to a run of ``duration`` seconds.

        A tuple of :class:`~repro.scenarios.faultplan.FaultPhase` —
        ``crash``/``recover`` cycles (churn), one-way ``partition`` windows
        (selective omission) — that ``run_cluster`` puts ahead of the run's
        own phases in its one fault schedule; ``()`` (the default) adds
        nothing.
        """
        return ()

    # ------------------------------------------------------------- reporting
    def counters(self) -> dict[str, float]:
        """Per-strategy counters merged into ``ClusterResult.breakdown``.

        Keys must carry the ``adversary_`` prefix: the scenario runner
        uses the prefix both to surface them (with the prefix stripped)
        on explicit ``--adversary`` rows and to keep them *out* of the
        generic breakdown columns of pre-existing recorded rows.
        """
        return {}

    # --------------------------------------------------------------- helpers
    def active(self, node_id: int, now: float) -> bool:
        """Whether ``node_id`` misbehaves at simulated time ``now``.

        Nodes without an explicit window are active for the whole run.
        """
        if node_id not in self.nodes:
            return False
        spans = self.windows.get(node_id)
        if not spans:
            return True
        return any(at <= now < until for at, until in spans)


_STRATEGIES: dict[str, type[AdversaryStrategy]] = {}


def register(cls: type[AdversaryStrategy]) -> type[AdversaryStrategy]:
    """Register a strategy class under its ``name`` (usable as a decorator)."""
    if not cls.name:
        raise ValueError("an AdversaryStrategy needs a non-empty name")
    if cls.name in _STRATEGIES:
        raise ValueError(f"adversary strategy {cls.name!r} already registered")
    _STRATEGIES[cls.name] = cls
    return cls


def names() -> list[str]:
    """Registered strategy names, in registration order."""
    return list(_STRATEGIES)


def get(name: str) -> type[AdversaryStrategy]:
    """Look up a registered strategy class by name."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown adversary strategy {name!r}; "
                       f"known: {', '.join(names())}") from None


def build(name: str, nodes: frozenset[int] = frozenset(),
          windows: Optional[Windows] = None, **params) -> AdversaryStrategy:
    """Instantiate the named strategy bound to one run's membership."""
    return get(name)(nodes=frozenset(nodes), windows=windows, **params)
