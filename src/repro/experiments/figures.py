"""One driver per table/figure of the paper's evaluation (Section 7).

The paper's evaluation is one parameter grid (Table 2: cluster size n x
workers w x batch b x tx size s) and Figures 5-15 are projections of it, so
each of them is a *declaration*: :func:`swept` names the ordered
``ExperimentScale`` tuples the figure iterates (outermost first) and
:func:`cluster_figure` adds what every point shares — fixed
``FireLedgerConfig`` fields, the measured window, the deployment, the fault
plan — around a function that turns one finished run into one row.  The
registry reads the sweepable axes off the same declaration (``driver.grid``
/ ``driver.caps``), so a grid is stated once.  Rows are plain dicts
mirroring the quantity the paper plots; ``expectation`` strings summarise
the shape the paper reports so that the benchmark output can be eyeballed
against it.  Drivers are registered under short names (``fig05`` ...
``fig17``, ``table1``) in :mod:`repro.experiments.registry`;
``EXPERIMENTS.md`` at the repo root records a run side by side with the
paper's numbers and is regenerated with ``python -m repro report``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.crypto.cost_model import C5_4XLARGE, M5_XLARGE, CryptoCostModel
from repro.experiments.harness import ExperimentScale
from repro.net.latency import GeoDistributedLatency
from repro.scenarios.faultplan import FaultSchedule, byzantine, crash


def _scale(scale: Optional[ExperimentScale]) -> ExperimentScale:
    return scale or ExperimentScale()


def _crash_last_f(config: FireLedgerConfig, at: float) -> FaultSchedule:
    """The paper's benign scenario: the last ``f`` nodes crash at ``at``."""
    victims = range(config.n_nodes - config.f, config.n_nodes)
    return FaultSchedule((crash(victims, at=at),))


def _byzantine_last(config: FireLedgerConfig) -> FaultSchedule:
    """Section 7.4.2: the last node is Byzantine for the whole run."""
    return FaultSchedule((byzantine(config.n_nodes - 1),))


#: ``ExperimentScale`` sweep tuple -> the configuration field it varies.
_GRID_FIELDS = {"cluster_sizes": "n_nodes", "batch_sizes": "batch_size",
                "tx_sizes": "tx_size", "workers_sweep": "workers"}
#: fig10/11/12 iterate ``workers_sweep[:2]`` to bound simulation cost.
_TWO_WORKER_COUNTS = {"workers_sweep": 2}


def swept(*grid: str, caps: Optional[dict] = None,
          n_nodes: Optional[int] = None) -> Callable:
    """Declare a driver as one point function run over a grid.

    ``grid`` names the ``ExperimentScale`` tuples to iterate, outermost
    first; ``caps`` bounds how many values of a tuple are consumed.  The
    decorated ``point(scale, **fields)`` returns one row; the driver that
    replaces it takes ``scale`` and returns every row of
    ``itertools.product`` over the grid.  With ``n_nodes`` the cluster size
    is not a grid tuple but a scalar keyword of the driver (Figure 10 runs
    one large cluster, whatever ``scale.cluster_sizes`` says).
    """
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
        # Not functools.wraps: __wrapped__ would make the registry read the
        # point function's signature instead of the driver's.
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

    ``fixed`` are the ``FireLedgerConfig`` fields the figure holds constant;
    ``window(scale)`` the ``(duration, warmup)`` it measures (the scale's by
    default); ``geo`` the paper's ten-region deployment; ``faults(config,
    scale)`` the run's fault plan.  The decorated ``row(config, result)``
    turns one finished run into one result row.
    """
    def declare(row: Callable[..., dict]) -> Callable[..., list]:
        def point(scale: ExperimentScale, **varied) -> dict:
            config = FireLedgerConfig(**fixed, **varied)
            duration, warmup = (window(scale) if window
                                else (scale.duration, scale.warmup))
            result = run_cluster(
                config, duration=duration, warmup=warmup, seed=scale.seed,
                latency_model=GeoDistributedLatency() if geo else None,
                faults=faults(config, scale) if faults else None,
                latency_trim=latency_trim)
            return row(config, result)

        point.__name__, point.__doc__ = row.__name__, row.__doc__
        return swept(*grid, caps=caps, n_nodes=n_nodes)(point)

    return declare


# ---------------------------------------------------------------------------
# Table 1 — protocol cost accounting per mode
# ---------------------------------------------------------------------------
def table1_costs(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Communication steps / signatures / latency per operating mode (Table 1)."""
    scale = _scale(scale)
    rows = []
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=100, tx_size=512)

    # Fault-free: count per-round control messages and signature operations.
    result = run_cluster(config, duration=scale.duration,
                         warmup=scale.warmup, seed=scale.seed)
    rounds = max(result.fast_path_rounds // config.n_nodes, 1)
    votes = result.network.messages_of_kind("OBBC_VOTE")
    signatures = result.breakdown["signatures"]
    rows.append({
        "mode": "fault-free",
        "communication_steps": 1,
        "control_msgs_per_node_per_round": round(votes / max(rounds, 1) / config.n_nodes, 2),
        "signatures_per_block": round(signatures / max(rounds, 1), 2),
        "finality_latency_rounds": config.f + 1,
        "paper": "1 step, 1 signature, f+1 rounds",
    })

    # Omission failures: crash one node (benign), fallback path exercised.
    degraded = run_cluster(config, duration=scale.duration,
                           warmup=scale.warmup, seed=scale.seed,
                           faults=_crash_last_f(config, at=scale.warmup / 2))
    rows.append({
        "mode": "omission/crash",
        "communication_steps": "2 + OBBC fallback",
        "control_msgs_per_node_per_round": None,
        "fallback_rounds": degraded.fallback_rounds,
        "failed_rounds": degraded.failed_rounds,
        "finality_latency_rounds": config.f + 1,
        "paper": "2 + OBBC, no extra latency",
    })

    # Byzantine failures: equivocation triggers RB + n parallel AB (recovery).
    attacked = run_cluster(config, duration=scale.duration,
                           warmup=scale.warmup, seed=scale.seed,
                           faults=_byzantine_last(config))
    rows.append({
        "mode": "byzantine",
        "communication_steps": "RB + n parallel AB",
        "recoveries": attacked.recoveries,
        "recoveries_per_second": round(attacked.recoveries_per_second, 2),
        "finality_latency_rounds": config.f + 1,
        "paper": "RB + n AB, no extra latency in rounds",
    })
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — signature generation rate
# ---------------------------------------------------------------------------
@swept("batch_sizes", "tx_sizes", "workers_sweep")
def figure05_signature_rate(scale: ExperimentScale, batch_size: int,
                            tx_size: int, workers: int) -> dict:
    """Signatures per second on one VM vs workers, batch size and tx size."""
    sps = CryptoCostModel(M5_XLARGE).signatures_per_second(
        batch_size, tx_size, workers)
    return {"batch_size": batch_size, "tx_size": tx_size, "workers": workers,
            "sps": round(sps, 1), "max_tps_bound": round(sps * batch_size, 1)}


# ---------------------------------------------------------------------------
# Figures 6/7 — single data-center throughput
# ---------------------------------------------------------------------------
@cluster_figure("cluster_sizes", "workers_sweep",
                batch_size=1, tx_size=512, fill_blocks=False)
def figure06_bps_single_dc(config, result) -> dict:
    """Blocks per second vs workers for n in {4,7,10} (empty blocks, Figure 6)."""
    return {"n": config.n_nodes, "workers": config.workers,
            "bps": round(result.bps, 1),
            "expectation": "bps grows with workers, shrinks with n"}


@cluster_figure("cluster_sizes", "batch_sizes", "tx_sizes", "workers_sweep")
def figure07_tps_single_dc(config, result) -> dict:
    """Transactions per second across the Table 2 grid (Figure 7)."""
    return {"n": config.n_nodes, "batch": config.batch_size,
            "tx_size": config.tx_size, "workers": config.workers,
            "tps": round(result.tps), "bps": round(result.bps, 1)}


# ---------------------------------------------------------------------------
# Figures 8/9 — latency and its breakdown
# ---------------------------------------------------------------------------
@cluster_figure("cluster_sizes", "workers_sweep", "batch_sizes", tx_size=512)
def figure08_latency_cdf(config, result) -> dict:
    """Block delivery latency CDF for sigma=512 (Figure 8)."""
    return {"n": config.n_nodes, "workers": config.workers,
            "batch": config.batch_size,
            "latency_p50_ms": round(result.latency.p50 * 1000, 1),
            "latency_p95_ms": round(result.latency.p95 * 1000, 1),
            "latency_p99_ms": round(result.latency.p99 * 1000, 1),
            "expectation": "latency grows with workers and batch size"}


@cluster_figure("cluster_sizes", "workers_sweep", batch_size=1000, tx_size=512)
def figure09_latency_breakdown(config, result) -> dict:
    """Relative time between the A..E events of a round (Figure 9)."""
    # The breakdown also carries protocol counters (round outcomes,
    # signatures); only the A..E stage spans belong in this figure.
    stages = {key: value for key, value in result.breakdown.items()
              if "->" in key}
    total = sum(stages.values()) or 1.0
    row = {"n": config.n_nodes, "workers": config.workers}
    for key, value in sorted(stages.items()):
        row[key] = round(value / total, 3)
    return row


# ---------------------------------------------------------------------------
# Figure 10 — scalability to n = 100
# ---------------------------------------------------------------------------
@cluster_figure("batch_sizes", "workers_sweep", caps=_TWO_WORKER_COUNTS,
                n_nodes=100, tx_size=512,
                window=lambda scale: (max(scale.duration / 2, 0.2),
                                      scale.warmup / 2))
def figure10_scalability(config, result) -> dict:
    """Throughput of a large cluster (Figure 10 uses n = 100)."""
    return {"n": config.n_nodes, "batch": config.batch_size,
            "workers": config.workers,
            "tps": round(result.tps), "bps": round(result.bps, 1),
            "expectation": "around 60K tps in the paper; workers have little effect"}


# ---------------------------------------------------------------------------
# Figures 11/12 — failures
# ---------------------------------------------------------------------------
@cluster_figure("cluster_sizes", "batch_sizes", "workers_sweep",
                caps=_TWO_WORKER_COUNTS, tx_size=512,
                faults=lambda config, scale: _crash_last_f(
                    config, at=scale.warmup / 2))
def figure11_crash_failures(config, result) -> dict:
    """Throughput with f crashed nodes (Figure 11)."""
    return {"n": config.n_nodes, "f_crashed": config.f,
            "batch": config.batch_size, "workers": config.workers,
            "tps": round(result.tps),
            "failed_rounds": result.failed_rounds,
            "expectation": "tens of thousands of tps despite crashes"}


@cluster_figure("cluster_sizes", "batch_sizes", "workers_sweep",
                caps=_TWO_WORKER_COUNTS, tx_size=512,
                faults=lambda config, scale: _byzantine_last(config))
def figure12_byzantine_failures(config, result) -> dict:
    """Throughput and recoveries/sec under an equivocating node (Figure 12)."""
    return {"n": config.n_nodes, "batch": config.batch_size,
            "workers": config.workers,
            "tps": round(result.tps),
            "recoveries_per_sec": round(result.recoveries_per_second, 2),
            "recoveries": result.recoveries,
            "expectation": "smaller batches => more recoveries; tps drops but stays >0"}


# ---------------------------------------------------------------------------
# Figures 13/14/15 — geo-distributed deployment
# ---------------------------------------------------------------------------
#: WAN rounds are slow: measure twice the scale's duration.
_WAN = {"geo": True, "window": lambda scale: (scale.duration * 2, scale.warmup)}


@cluster_figure("cluster_sizes", "workers_sweep", **_WAN,
                batch_size=1, tx_size=512, fill_blocks=False)
def figure13_bps_multi_dc(config, result) -> dict:
    """Blocks per second in the ten-region deployment (Figure 13)."""
    return {"n": config.n_nodes, "workers": config.workers,
            "bps": round(result.bps, 1),
            "expectation": "well under 10% of the single-DC bps"}


@cluster_figure("cluster_sizes", "batch_sizes", "workers_sweep", **_WAN,
                tx_size=512)
def figure14_tps_multi_dc(config, result) -> dict:
    """Transactions per second in the geo deployment, sigma=512 (Figure 14)."""
    return {"n": config.n_nodes, "batch": config.batch_size,
            "workers": config.workers,
            "tps": round(result.tps),
            "expectation": "around 30K tps at the paper's best configuration"}


@cluster_figure("cluster_sizes", "workers_sweep", "batch_sizes", **_WAN,
                tx_size=512, latency_trim=0.05)
def figure15_latency_multi_dc(config, result) -> dict:
    """Block latency in the geo deployment (Figure 15; 5% outliers trimmed)."""
    return {"n": config.n_nodes, "workers": config.workers,
            "batch": config.batch_size,
            "latency_mean_s": round(result.latency.mean, 3),
            "latency_p95_s": round(result.latency.p95, 3),
            "expectation": "dominated by WAN round trips (hundreds of ms to seconds)"}


# ---------------------------------------------------------------------------
# Figures 16/17 — comparison against HotStuff and BFT-SMaRt
# ---------------------------------------------------------------------------
_C5_EXPECTATION = {
    "hotstuff": "FLO 1.2x-3x the throughput; HotStuff lower latency at large n",
    "bftsmart": "FLO 1.4x-7x the throughput; gap narrows as transactions grow",
}


def c5_comparison(baselines: Sequence[str],
                  scale: Optional[ExperimentScale] = None,
                  cluster_sizes: tuple[int, ...] = (4, 10, 16),
                  tx_sizes: tuple[int, ...] = (128, 512, 1024),
                  ) -> dict[str, list[dict]]:
    """FLO vs each of ``baselines`` on c5.4xlarge machines, b = 1000.

    One FireLedger run per grid point serves every baseline (Figures 16 and
    17 plot the same FLO curve).  A baseline runs through the
    protocol-pluggable cluster API on the same machine and seed; its 0.2 s
    warmup matches the retired ``HotStuffCluster`` / ``BFTSmartCluster``
    measurement window so the figures reproduce the historical numbers.
    """
    scale = _scale(scale)
    rows: dict[str, list[dict]] = {name: [] for name in baselines}
    for n_nodes, tx_size in itertools.product(cluster_sizes, tx_sizes):
        f = max((n_nodes - 1) // 3 - 1, 1) if n_nodes > 4 else 1
        flo = run_cluster(
            FireLedgerConfig(n_nodes=n_nodes, batch_size=1000, tx_size=tx_size,
                             workers=min(8, max(scale.workers_sweep)), f=f,
                             machine=C5_4XLARGE),
            duration=scale.duration, warmup=scale.warmup, seed=scale.seed)
        for name in baselines:
            other = run_cluster(
                FireLedgerConfig(n_nodes=n_nodes, batch_size=1000,
                                 tx_size=tx_size, machine=C5_4XLARGE),
                protocol=name, duration=scale.duration,
                warmup=min(0.2, scale.duration / 2), seed=scale.seed)
            speedup = flo.tps / other.tps if other.tps else float("inf")
            rows[name].append({
                "n": n_nodes, "tx_size": tx_size,
                "flo_tps": round(flo.tps),
                f"{name}_tps": round(other.tps),
                f"flo_over_{name}": round(speedup, 2),
                "flo_latency_s": round(flo.latency.mean, 3),
                f"{name}_latency_s": round(other.latency.mean, 3),
                "expectation": _C5_EXPECTATION[name]})
    return rows


def figure16_vs_hotstuff(scale: Optional[ExperimentScale] = None,
                         cluster_sizes: tuple[int, ...] = (4, 10, 16),
                         tx_sizes: tuple[int, ...] = (128, 512, 1024)) -> list[dict]:
    """FLO vs HotStuff on c5.4xlarge machines (Figure 16)."""
    return c5_comparison(("hotstuff",), scale, cluster_sizes,
                         tx_sizes)["hotstuff"]


def figure17_vs_bftsmart(scale: Optional[ExperimentScale] = None,
                         cluster_sizes: tuple[int, ...] = (4, 10, 16),
                         tx_sizes: tuple[int, ...] = (128, 512, 1024)) -> list[dict]:
    """FLO vs BFT-SMaRt on c5.4xlarge machines (Figure 17)."""
    return c5_comparison(("bftsmart",), scale, cluster_sizes,
                         tx_sizes)["bftsmart"]
