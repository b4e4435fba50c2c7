"""Memory-footprint driver (``memfootprint``): flat vs linear live state.

The bounded-memory retention policy (chain pruning into a
:class:`~repro.ledger.chain.ChainSummary`, streaming metrics, capped
transaction pools) exists so that long soak runs hold O(retention-window)
state instead of O(run-length).  This driver demonstrates exactly that: it
runs the same saturated FireLedger configuration at increasing simulated
durations, once with retention **off** (the paper's keep-everything mode) and
once with retention **on**, and records

* the *live-object counts* that dominate a node's heap — per-worker live
  chain blocks (``live_blocks``), per-node live metric records
  (``live_records``) — plus the total blocks ever decided, so the flat-vs-
  linear contrast is visible next to the growing ledger;
* the host-side *peak allocation* of the run measured with ``tracemalloc``
  (per-run, resettable) and the process peak RSS from ``getrusage`` (which
  only ever grows across a process, so compare it within one variant's
  column, not across rows).

Live-object counts are deterministic simulated quantities; the two memory
columns are host measurements, so the driver is registered ``wall_clock``
(kept out of ``--jobs`` worker pools).
"""

from __future__ import annotations

import gc
import resource
import sys
import tracemalloc

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.experiments.harness import ExperimentScale
from repro.ledger.chain import PRUNE_SLACK

#: The fixed cluster shape every row runs (saturated blocks: deterministic
#: round cadence, so live/total block counts depend only on the duration).
POINT = {"workers": 1, "batch_size": 100, "tx_size": 512}
#: Retention window used by the bounded variant.
RETENTION_ROUNDS = 64
#: Simulated durations run to expose growth-in-run-length.
DURATIONS = (0.5, 1.0, 2.0, 4.0)


def peak_rss_mb() -> float:
    """Process peak RSS in MiB (ru_maxrss is KiB on Linux, bytes on macOS).

    Shared with the CI soak smoke; a process-wide high-water mark, so it
    only ever grows — compare it within one variant, not across orderings.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / divisor


def _run_point(n_nodes: int, duration: float, seed: int,
               bounded: bool) -> dict:
    config = FireLedgerConfig(
        n_nodes=n_nodes, **POINT,
        retention_rounds=RETENTION_ROUNDS if bounded else None)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_cluster(config, duration=duration,
                             warmup=min(0.1, duration / 4), seed=seed)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    live_blocks = max(len(worker.chain) for node in result.nodes
                      for worker in node.workers)
    total_blocks = max(worker.chain.total_blocks for node in result.nodes
                       for worker in node.workers)
    live_records = max(node.recorder.live_records for node in result.nodes)
    folded = max(node.recorder.records_folded for node in result.nodes)
    effective = max((worker.chain.effective_retention or 0)
                    for node in result.nodes for worker in node.workers)
    return {
        "variant": "retention-on" if bounded else "retention-off",
        "n": n_nodes,
        "sim_s": duration,
        "tps": round(result.tps, 1),
        "total_blocks": total_blocks,
        "live_blocks": live_blocks,
        "live_records": live_records,
        "folded_records": folded,
        "retention_bound": (effective + config.finality_depth + PRUNE_SLACK
                           if bounded else None),
        "tracemalloc_peak_mb": round(peak_bytes / (1024 * 1024), 2),
        "rss_mb": round(peak_rss_mb(), 1),
    }


def memory_footprint(scale: ExperimentScale, n_nodes: int) -> list[dict]:
    """Live state and peak memory, retention off vs on, over run length."""
    rows = []
    # Bounded first: ru_maxrss is a process-wide high-water mark, so running
    # the unbounded variant first would imprint its peak on every
    # retention-on row's rss_mb and make the column meaningless.
    for bounded in (True, False):
        for duration in DURATIONS:
            row = _run_point(n_nodes, duration, scale.seed, bounded)
            row["expectation"] = ("live_blocks/live_records grow with sim_s "
                                  "when retention is off, stay flat (<= the "
                                  "retention bound) when it is on")
            rows.append(row)
    return rows
