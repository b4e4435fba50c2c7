"""Link latency models: the paper's two deployments plus general WAN matrices.

``SingleDatacenterLatency`` and ``GeoDistributedLatency`` mirror the paper's
LAN and ten-region evaluations; :class:`WanTopologyLatency` generalises them
to arbitrary multi-region topologies with per-link one-way delay and optional
per-link bandwidth, which is what the declarative scenario layer
(:mod:`repro.scenarios`) builds from a :class:`~repro.scenarios.spec.TopologySpec`.
"""

from __future__ import annotations

import random
from math import cos, log, pi, sin, sqrt
from typing import Mapping, Optional, Sequence

_TWOPI = 2.0 * pi


def _abs_gauss_block(rng: random.Random, count: int) -> list[float]:
    """``[abs(rng.gauss(0, 1)) for _ in range(count)]``, bit-identical.

    Replicates CPython's ``random.Random.gauss`` — pairwise polar generation
    with the second value cached in ``gauss_next`` — with the per-call method
    overhead stripped out of the broadcast fan-out loop.  Exactness matters:
    the batched delivery path must consume the rng stream exactly as per-copy
    :meth:`LatencyModel.sample` calls would, and ``test_network`` pins this
    helper against the stdlib draw for draw.
    """
    uniform = rng.random
    out: list[float] = []
    append = out.append
    z = rng.gauss_next
    if z is not None:
        if count == 0:
            return out
        rng.gauss_next = None
        append(z if z >= 0.0 else -z)
        count -= 1
    # Whole polar pairs, branch-free per pair.
    for _ in range(count >> 1):
        x2pi = uniform() * _TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        z = cos(x2pi) * g2rad
        append(z if z >= 0.0 else -z)
        z = sin(x2pi) * g2rad
        append(z if z >= 0.0 else -z)
    if count & 1:
        x2pi = uniform() * _TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        z = cos(x2pi) * g2rad
        append(z if z >= 0.0 else -z)
        rng.gauss_next = sin(x2pi) * g2rad
    return out


class _LazyTable(dict):
    """A dict that fills a missing key from ``fill(key)``, once: a base-delay
    row (or a table of rows) whose size is not known up front.  Hits are
    plain C-level dict lookups."""

    def __init__(self, fill) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class LatencyModel:
    """Base class: per-link one-way propagation delay in seconds.

    Every model is "base delay of the link, times a jitter factor": a
    subclass provides ``jitter`` and ``_rows`` — ``_rows[src][dst]`` is the
    deterministic one-way delay of the ``src -> dst`` link — and inherits the
    sampling.
    """

    jitter: float
    #: ``_rows[src][dst]``: base delay in seconds (lists, or lazily filled).
    _rows: "Sequence[Sequence[float]] | Mapping[int, Mapping[int, float]]"

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """One-way delay for a message from ``src`` to ``dst``."""
        # Lognormal-ish jitter: mostly near base, occasional slower delivery.
        return self._rows[src][dst] * (1.0 + self.jitter * abs(rng.gauss(0.0, 1.0)))

    def sample_block(self, src: int, receivers: Sequence[int],
                     rng: random.Random) -> list[float]:
        """One-way delays for one broadcast: one entry per receiver, in order.

        Consumes ``rng`` exactly as the equivalent sequence of :meth:`sample`
        calls would — the batched delivery path relies on the stream being
        identical so that batched and per-copy runs stay bit-for-bit
        equivalent — with the per-call overhead hoisted out of the fan-out
        loop.
        """
        row = self._rows[src]
        jitter = self.jitter
        return [row[dst] * (1.0 + jitter * g)
                for dst, g in zip(receivers, _abs_gauss_block(rng, len(receivers)))]

    def transfer_delay(self, src: int, dst: int, size_bytes: int) -> float:
        """Size-dependent serialisation time on the ``src -> dst`` path.

        Models constrained WAN links: the time ``size_bytes`` occupies the
        path on top of propagation delay and on top of the per-node NIC cost
        the :class:`~repro.net.network.Network` already charges.  The default
        is 0 (links are only latency-bound, as in the paper's deployments);
        :class:`WanTopologyLatency` derives it from per-link bandwidth.
        """
        return 0.0


class SingleDatacenterLatency(LatencyModel):
    """Intra data-center latency: ~a quarter millisecond with light jitter.

    The paper's single-DC deployment runs on non-dedicated VMs inside one AWS
    region; typical one-way delays there are 100-500 microseconds.
    """

    def __init__(self, base: float = 0.25e-3, jitter: float = 0.35) -> None:
        if base <= 0:
            raise ValueError("base latency must be positive")
        self.base = base
        self.jitter = jitter
        # One constant row, shared by every source.
        row = _LazyTable(lambda dst: base)
        self._rows = _LazyTable(lambda src: row)


#: The ten AWS regions of the geo-distributed deployment (Section 7.5), in the
#: order the paper lists them.
GEO_REGIONS: tuple[str, ...] = (
    "tokyo",
    "canada-central",
    "frankfurt",
    "paris",
    "sao-paulo",
    "oregon",
    "singapore",
    "sydney",
    "ireland",
    "ohio",
)

# Approximate one-way inter-region delays in milliseconds (symmetric).  Values
# are representative public measurements of AWS inter-region RTT halved.
_GEO_ONE_WAY_MS: dict[frozenset[str], float] = {}


def _set(a: str, b: str, one_way_ms: float) -> None:
    _GEO_ONE_WAY_MS[frozenset((a, b))] = one_way_ms


_set("tokyo", "canada-central", 78)
_set("tokyo", "frankfurt", 118)
_set("tokyo", "paris", 112)
_set("tokyo", "sao-paulo", 128)
_set("tokyo", "oregon", 48)
_set("tokyo", "singapore", 34)
_set("tokyo", "sydney", 52)
_set("tokyo", "ireland", 102)
_set("tokyo", "ohio", 74)
_set("canada-central", "frankfurt", 46)
_set("canada-central", "paris", 42)
_set("canada-central", "sao-paulo", 62)
_set("canada-central", "oregon", 30)
_set("canada-central", "singapore", 108)
_set("canada-central", "sydney", 100)
_set("canada-central", "ireland", 34)
_set("canada-central", "ohio", 13)
_set("frankfurt", "paris", 5)
_set("frankfurt", "sao-paulo", 102)
_set("frankfurt", "oregon", 79)
_set("frankfurt", "singapore", 82)
_set("frankfurt", "sydney", 144)
_set("frankfurt", "ireland", 13)
_set("frankfurt", "ohio", 50)
_set("paris", "sao-paulo", 97)
_set("paris", "oregon", 70)
_set("paris", "singapore", 85)
_set("paris", "sydney", 140)
_set("paris", "ireland", 9)
_set("paris", "ohio", 45)
_set("sao-paulo", "oregon", 89)
_set("sao-paulo", "singapore", 165)
_set("sao-paulo", "sydney", 158)
_set("sao-paulo", "ireland", 92)
_set("sao-paulo", "ohio", 65)
_set("oregon", "singapore", 83)
_set("oregon", "sydney", 70)
_set("oregon", "ireland", 62)
_set("oregon", "ohio", 25)
_set("singapore", "sydney", 46)
_set("singapore", "ireland", 88)
_set("singapore", "ohio", 108)
_set("sydney", "ireland", 128)
_set("sydney", "ohio", 97)
_set("ireland", "ohio", 38)


class GeoDistributedLatency(LatencyModel):
    """Latency matrix for the geo-distributed deployment.

    Nodes are placed one per region in the paper's listed order; clusters
    smaller than ten nodes use the first ``n`` regions.
    """

    def __init__(self, regions: Sequence[str] = GEO_REGIONS, jitter: float = 0.08,
                 local_one_way: float = 0.25e-3) -> None:
        unknown = [r for r in regions if r not in GEO_REGIONS]
        if unknown:
            raise ValueError(f"unknown regions: {unknown}")
        self.regions = tuple(regions)
        self.jitter = jitter
        self.local_one_way = local_one_way
        # Lazily filled per-source rows of base delays: the frozenset matrix
        # lookup is too slow for the broadcast fan-out loop, and n is not
        # known up front (region_of wraps modulo), so rows fill on demand.
        self._rows = _LazyTable(lambda src: _LazyTable(
            lambda dst: self._lookup_delay(src, dst)))

    def region_of(self, node_id: int) -> str:
        """Region hosting ``node_id`` (wraps around for very large clusters)."""
        return self.regions[node_id % len(self.regions)]

    def _lookup_delay(self, src: int, dst: int) -> float:
        region_src = self.region_of(src)
        region_dst = self.region_of(dst)
        if region_src == region_dst:
            return self.local_one_way
        return _GEO_ONE_WAY_MS[frozenset((region_src, region_dst))] * 1e-3


class WanTopologyLatency(LatencyModel):
    """General multi-region WAN: explicit node placement, per-link matrices.

    ``assignment`` maps every node id to a region name.  Cross-region one-way
    delays come from ``one_way_s`` (keyed by ``frozenset({a, b})``, seconds);
    pairs absent from the matrix fall back to ``default_one_way``.
    Intra-region delay is the region's entry in ``local_one_way`` (or
    ``DEFAULT_LOCAL_ONE_WAY``).  ``bandwidth_bps`` optionally caps cross-region
    links: :meth:`transfer_delay` then charges ``size / bandwidth`` per
    message on that link, modelling thin WAN pipes independently of the
    per-node NIC model.  All lookups are precomputed into dense n x n
    matrices, so the per-message cost matches the paper-preset models.
    """

    #: Intra-region one-way delay of a region ``local_one_way`` leaves out.
    DEFAULT_LOCAL_ONE_WAY = 0.25e-3

    def __init__(self, assignment: Sequence[str],
                 one_way_s: Optional[Mapping[frozenset, float]] = None,
                 local_one_way: Optional[Mapping[str, float]] = None,
                 default_one_way: float = 0.040,
                 bandwidth_bps: Optional[Mapping[frozenset, float]] = None,
                 default_bandwidth_bps: Optional[float] = None,
                 jitter: float = 0.08) -> None:
        if not assignment:
            raise ValueError("assignment must place at least one node")
        if default_one_way < 0:
            raise ValueError("delays must be non-negative")
        self.assignment = tuple(assignment)
        self.regions = tuple(dict.fromkeys(self.assignment))
        self.jitter = jitter
        one_way_s = dict(one_way_s or {})
        local_one_way = dict(local_one_way or {})
        bandwidth_bps = dict(bandwidth_bps or {})
        n = len(self.assignment)
        self._rows = [[0.0] * n for _ in range(n)]
        self._inv_bandwidth = [[0.0] * n for _ in range(n)]
        for src in range(n):
            for dst in range(n):
                a, b = self.assignment[src], self.assignment[dst]
                if a == b:
                    self._rows[src][dst] = local_one_way.get(
                        a, self.DEFAULT_LOCAL_ONE_WAY)
                    continue  # intra-region links are never bandwidth-capped
                key = frozenset((a, b))
                self._rows[src][dst] = one_way_s.get(key, default_one_way)
                bandwidth = bandwidth_bps.get(key, default_bandwidth_bps)
                if bandwidth is not None:
                    if bandwidth <= 0:
                        raise ValueError("link bandwidth must be positive")
                    self._inv_bandwidth[src][dst] = 1.0 / bandwidth

    def region_of(self, node_id: int) -> str:
        """Region hosting ``node_id``."""
        return self.assignment[node_id]

    def transfer_delay(self, src: int, dst: int, size_bytes: int) -> float:
        return size_bytes * self._inv_bandwidth[src][dst]
