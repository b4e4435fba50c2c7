"""One driver per table/figure of the paper's evaluation (Section 7).

Each function sweeps the relevant parameters, runs the simulated cluster and
returns a list of plain-dict rows mirroring the quantity the paper plots.
``expectation`` strings summarise the shape the paper reports so that the
benchmark output can be eyeballed against it.  Drivers are registered under
short names (``fig05`` ... ``fig17``, ``table1``) in
:mod:`repro.experiments.registry`; ``EXPERIMENTS.md`` at the repo root records
a run side by side with the paper's numbers and is regenerated with
``python -m repro report``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.crypto.cost_model import C5_4XLARGE, M5_XLARGE, CryptoCostModel
from repro.experiments.harness import ExperimentScale
from repro.metrics.summary import cdf_points
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
    signatures = sum(worker.signatures_created for node in result.nodes
                     for worker in node.workers)
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
def figure05_signature_rate(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Signatures per second on one VM vs workers, batch size and tx size."""
    scale = _scale(scale)
    model = CryptoCostModel(M5_XLARGE)
    rows = []
    for batch_size in scale.batch_sizes:
        for tx_size in scale.tx_sizes:
            for workers in scale.workers_sweep:
                sps = model.signatures_per_second(batch_size, tx_size, workers)
                rows.append({
                    "batch_size": batch_size,
                    "tx_size": tx_size,
                    "workers": workers,
                    "sps": round(sps, 1),
                    "max_tps_bound": round(sps * batch_size, 1),
                })
    return rows


# ---------------------------------------------------------------------------
# Figures 6/7 — single data-center throughput
# ---------------------------------------------------------------------------
def figure06_bps_single_dc(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Blocks per second vs workers for n in {4,7,10} (empty blocks, Figure 6)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for workers in scale.workers_sweep:
            config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                      batch_size=1, tx_size=512,
                                      fill_blocks=False)
            result = run_cluster(config, duration=scale.duration,
                                 warmup=scale.warmup, seed=scale.seed)
            rows.append({"n": n_nodes, "workers": workers,
                         "bps": round(result.bps, 1),
                         "expectation": "bps grows with workers, shrinks with n"})
    return rows


def figure07_tps_single_dc(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Transactions per second across the Table 2 grid (Figure 7)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for batch_size in scale.batch_sizes:
            for tx_size in scale.tx_sizes:
                for workers in scale.workers_sweep:
                    config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                              batch_size=batch_size, tx_size=tx_size)
                    result = run_cluster(config, duration=scale.duration,
                                         warmup=scale.warmup,
                                         seed=scale.seed)
                    rows.append({"n": n_nodes, "batch": batch_size,
                                 "tx_size": tx_size, "workers": workers,
                                 "tps": round(result.tps),
                                 "bps": round(result.bps, 1)})
    return rows


# ---------------------------------------------------------------------------
# Figures 8/9 — latency and its breakdown
# ---------------------------------------------------------------------------
def figure08_latency_cdf(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Block delivery latency CDF for sigma=512 (Figure 8)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for workers in scale.workers_sweep:
            for batch_size in scale.batch_sizes:
                config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                          batch_size=batch_size, tx_size=512)
                result = run_cluster(config, duration=scale.duration,
                                     warmup=scale.warmup, seed=scale.seed)
                rows.append({
                    "n": n_nodes, "workers": workers, "batch": batch_size,
                    "latency_p50_ms": round(result.latency.p50 * 1000, 1),
                    "latency_p95_ms": round(result.latency.p95 * 1000, 1),
                    "latency_p99_ms": round(result.latency.p99 * 1000, 1),
                    "expectation": "latency grows with workers and batch size",
                })
    return rows


def figure09_latency_breakdown(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Relative time between the A..E events of a round (Figure 9)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for workers in scale.workers_sweep:
            config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                      batch_size=1000, tx_size=512)
            result = run_cluster(config, duration=scale.duration,
                                 warmup=scale.warmup, seed=scale.seed)
            # The breakdown also carries protocol counters (round outcomes,
            # signatures); only the A..E stage spans belong in this figure.
            stages = {key: value for key, value in result.breakdown.items()
                      if "->" in key}
            total = sum(stages.values()) or 1.0
            row = {"n": n_nodes, "workers": workers}
            for key, value in sorted(stages.items()):
                row[key] = round(value / total, 3)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — scalability to n = 100
# ---------------------------------------------------------------------------
def figure10_scalability(scale: Optional[ExperimentScale] = None,
                         n_nodes: int = 100) -> list[dict]:
    """Throughput of a large cluster (Figure 10 uses n = 100)."""
    scale = _scale(scale)
    rows = []
    for batch_size in scale.batch_sizes:
        for workers in scale.workers_sweep[:2]:
            config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                      batch_size=batch_size, tx_size=512)
            result = run_cluster(config,
                                 duration=max(scale.duration / 2, 0.2),
                                 warmup=scale.warmup / 2,
                                 seed=scale.seed)
            rows.append({"n": n_nodes, "batch": batch_size, "workers": workers,
                         "tps": round(result.tps), "bps": round(result.bps, 1),
                         "expectation": "around 60K tps in the paper; workers have little effect"})
    return rows


# ---------------------------------------------------------------------------
# Figures 11/12 — failures
# ---------------------------------------------------------------------------
def figure11_crash_failures(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Throughput with f crashed nodes (Figure 11)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for batch_size in scale.batch_sizes:
            for workers in scale.workers_sweep[:2]:
                config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                          batch_size=batch_size, tx_size=512)
                result = run_cluster(config, duration=scale.duration,
                                     warmup=scale.warmup,
                                     seed=scale.seed,
                                     faults=_crash_last_f(
                                         config, at=scale.warmup / 2))
                rows.append({"n": n_nodes, "f_crashed": config.f,
                             "batch": batch_size, "workers": workers,
                             "tps": round(result.tps),
                             "failed_rounds": result.failed_rounds,
                             "expectation": "tens of thousands of tps despite crashes"})
    return rows


def figure12_byzantine_failures(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Throughput and recoveries/sec under an equivocating node (Figure 12)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for batch_size in scale.batch_sizes:
            for workers in scale.workers_sweep[:2]:
                config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                          batch_size=batch_size, tx_size=512)
                result = run_cluster(config, duration=scale.duration,
                                     warmup=scale.warmup,
                                     seed=scale.seed,
                                     faults=_byzantine_last(config))
                rows.append({"n": n_nodes, "batch": batch_size, "workers": workers,
                             "tps": round(result.tps),
                             "recoveries_per_sec": round(result.recoveries_per_second, 2),
                             "recoveries": result.recoveries,
                             "expectation": "smaller batches => more recoveries; tps drops but stays >0"})
    return rows


# ---------------------------------------------------------------------------
# Figures 13/14/15 — geo-distributed deployment
# ---------------------------------------------------------------------------
def figure13_bps_multi_dc(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Blocks per second in the ten-region deployment (Figure 13)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for workers in scale.workers_sweep:
            config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                      batch_size=1, tx_size=512, fill_blocks=False)
            result = run_cluster(config, duration=scale.duration * 2,
                                 warmup=scale.warmup, seed=scale.seed,
                                 latency_model=GeoDistributedLatency())
            rows.append({"n": n_nodes, "workers": workers,
                         "bps": round(result.bps, 1),
                         "expectation": "well under 10% of the single-DC bps"})
    return rows


def figure14_tps_multi_dc(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Transactions per second in the geo deployment, sigma=512 (Figure 14)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for batch_size in scale.batch_sizes:
            for workers in scale.workers_sweep:
                config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                          batch_size=batch_size, tx_size=512)
                result = run_cluster(config, duration=scale.duration * 2,
                                     warmup=scale.warmup,
                                     seed=scale.seed,
                                     latency_model=GeoDistributedLatency())
                rows.append({"n": n_nodes, "batch": batch_size, "workers": workers,
                             "tps": round(result.tps),
                             "expectation": "around 30K tps at the paper's best configuration"})
    return rows


def figure15_latency_multi_dc(scale: Optional[ExperimentScale] = None) -> list[dict]:
    """Block latency in the geo deployment (Figure 15; 5% outliers trimmed)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in scale.cluster_sizes:
        for workers in scale.workers_sweep:
            for batch_size in scale.batch_sizes:
                config = FireLedgerConfig(n_nodes=n_nodes, workers=workers,
                                          batch_size=batch_size, tx_size=512)
                result = run_cluster(config, duration=scale.duration * 2,
                                     warmup=scale.warmup,
                                     seed=scale.seed,
                                     latency_model=GeoDistributedLatency(),
                                     latency_trim=0.05)
                rows.append({"n": n_nodes, "workers": workers, "batch": batch_size,
                             "latency_mean_s": round(result.latency.mean, 3),
                             "latency_p95_s": round(result.latency.p95, 3),
                             "expectation": "dominated by WAN round trips (hundreds of ms to seconds)"})
    return rows


# ---------------------------------------------------------------------------
# Figures 16/17 — comparison against HotStuff and BFT-SMaRt
# ---------------------------------------------------------------------------
def _flo_on_c5(n_nodes: int, batch_size: int, tx_size: int,
               scale: ExperimentScale) -> dict:
    f = max((n_nodes - 1) // 3 - 1, 1) if n_nodes > 4 else 1
    config = FireLedgerConfig(n_nodes=n_nodes, workers=min(8, max(scale.workers_sweep)),
                              batch_size=batch_size, tx_size=tx_size,
                              f=f, machine=C5_4XLARGE)
    result = run_cluster(config, duration=scale.duration,
                         warmup=scale.warmup, seed=scale.seed)
    return {"tps": result.tps, "latency": result.latency.mean}


def _baseline_on_c5(protocol: str, n_nodes: int, batch_size: int, tx_size: int,
                    scale: ExperimentScale):
    """Run a baseline through the protocol-pluggable cluster API.

    Same machine and seed as the FLO side; the 0.2 s warmup matches the
    retired ``HotStuffCluster`` / ``BFTSmartCluster`` measurement window so
    the rewired figures reproduce the historical numbers.
    """
    config = FireLedgerConfig(n_nodes=n_nodes, batch_size=batch_size,
                              tx_size=tx_size, machine=C5_4XLARGE)
    return run_cluster(config, protocol=protocol, duration=scale.duration,
                       warmup=min(0.2, scale.duration / 2), seed=scale.seed)


def figure16_vs_hotstuff(scale: Optional[ExperimentScale] = None,
                         cluster_sizes: tuple[int, ...] = (4, 10, 16),
                         tx_sizes: tuple[int, ...] = (128, 512, 1024)) -> list[dict]:
    """FLO vs HotStuff on c5.4xlarge machines (Figure 16)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in cluster_sizes:
        for tx_size in tx_sizes:
            flo = _flo_on_c5(n_nodes, 1000, tx_size, scale)
            hotstuff = _baseline_on_c5("hotstuff", n_nodes, 1000, tx_size, scale)
            speedup = flo["tps"] / hotstuff.tps if hotstuff.tps else float("inf")
            rows.append({"n": n_nodes, "tx_size": tx_size,
                         "flo_tps": round(flo["tps"]),
                         "hotstuff_tps": round(hotstuff.tps),
                         "flo_over_hotstuff": round(speedup, 2),
                         "flo_latency_s": round(flo["latency"], 3),
                         "hotstuff_latency_s": round(hotstuff.latency.mean, 3),
                         "expectation": "FLO 1.2x-3x the throughput; HotStuff lower latency at large n"})
    return rows


def figure17_vs_bftsmart(scale: Optional[ExperimentScale] = None,
                         cluster_sizes: tuple[int, ...] = (4, 10, 16),
                         tx_sizes: tuple[int, ...] = (128, 512, 1024)) -> list[dict]:
    """FLO vs BFT-SMaRt on c5.4xlarge machines (Figure 17)."""
    scale = _scale(scale)
    rows = []
    for n_nodes in cluster_sizes:
        for tx_size in tx_sizes:
            flo = _flo_on_c5(n_nodes, 1000, tx_size, scale)
            bftsmart = _baseline_on_c5("bftsmart", n_nodes, 1000, tx_size, scale)
            speedup = flo["tps"] / bftsmart.tps if bftsmart.tps else float("inf")
            rows.append({"n": n_nodes, "tx_size": tx_size,
                         "flo_tps": round(flo["tps"]),
                         "bftsmart_tps": round(bftsmart.tps),
                         "flo_over_bftsmart": round(speedup, 2),
                         "flo_latency_s": round(flo["latency"], 3),
                         "bftsmart_latency_s": round(bftsmart.latency.mean, 3),
                         "expectation": "FLO 1.4x-7x the throughput; gap narrows as transactions grow"})
    return rows
