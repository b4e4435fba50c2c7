"""The two hand-written metric folds ``NodeMetrics.combine`` replaced, kept as
a test oracle.

Until ``combine``, "sum the totals, average the stage spans, merge the
histograms" was written twice: :func:`cluster_fold` is the loop
``run_cluster`` ran over the correct nodes of a cluster (rates and ``means``
average — the paper's "averaged over nodes"), :func:`lane_fold` the loop the
lane wrapper ran over the lanes of one node (rates and ``means`` add, plus
the ``lane<i>_tx_rejected`` / ``lane_skew`` lines that still live in
``MultiplexedNode.metrics``).  Both are the parent commit's statements,
verbatim, around the values they read and returned; the one
liberty is :func:`_average`, which spells ``ThroughputSummary.average``'s
``sum(...) / count`` as the left-to-right additions ``sum`` performed on the
interpreters that recorded ``results/`` (3.12's ``sum`` compensates floats,
so the spelling matters there and only there).  ``combine`` claims to be
unobservable: every float equal with ``==``, dict keys in the same order.
"""

from __future__ import annotations

from repro.metrics.summary import LatencyHistogram
from repro.metrics.recorder import NodeMetrics


def _average(values: list[float]) -> float:
    """``ThroughputSummary.average`` for one field (0.0 when empty)."""
    if not values:
        return 0.0
    total = 0
    for value in values:
        total = total + value
    return total / len(values)


def cluster_fold(per_node: list[NodeMetrics]) -> dict:
    """``run_cluster``'s fold of its correct nodes' metrics.

    Returns what the old loop left behind for the ``ClusterResult``: the
    averaged rates, the pooled raw latency samples, the merged histogram
    (already extended with those samples, as ``run_cluster`` did before
    summarising it; None when no node streamed) and the breakdown dict.
    """
    per_node_tps: list[float] = []
    per_node_bps: list[float] = []
    recoveries: list[float] = []
    latency_samples: list[float] = []
    latency_histograms: list[LatencyHistogram] = []
    stage_totals: dict[str, float] = {}
    stage_counts: dict[str, int] = {}
    counter_totals: dict[str, float] = {}
    mean_totals: dict[str, float] = {}
    mean_counts: dict[str, int] = {}

    for metrics in per_node:
        per_node_tps.append(metrics.tps)
        per_node_bps.append(metrics.bps)
        recoveries.append(metrics.recoveries_per_second)
        latency_samples.extend(metrics.latency_samples)
        if metrics.latency_histogram is not None:
            latency_histograms.append(metrics.latency_histogram)
        for key, value in metrics.stage_breakdown.items():
            stage_totals[key] = stage_totals.get(key, 0.0) + value
            stage_counts[key] = stage_counts.get(key, 0) + 1
        for key, value in metrics.totals.items():
            counter_totals[key] = counter_totals.get(key, 0.0) + value
        for key, value in metrics.means.items():
            mean_totals[key] = mean_totals.get(key, 0.0) + value
            mean_counts[key] = mean_counts.get(key, 0) + 1

    merged = None
    if latency_histograms:
        merged = LatencyHistogram(bin_width=latency_histograms[0].bin_width)
        for histogram in latency_histograms:
            merged.merge(histogram)
        merged.extend(latency_samples)
    breakdown = {key: stage_totals[key] / stage_counts[key]
                 for key in stage_totals}
    breakdown.update(counter_totals)
    breakdown.update({key: mean_totals[key] / mean_counts[key]
                      for key in mean_totals})
    return {"tps": _average(per_node_tps), "bps": _average(per_node_bps),
            "recoveries_per_second": _average(recoveries),
            "latency_samples": latency_samples, "latency_histogram": merged,
            "breakdown": breakdown}


def lane_fold(per_lane: list[NodeMetrics], lanes: int) -> NodeMetrics:
    """The lane wrapper's fold of one node's lanes."""
    merged = NodeMetrics()
    stage_totals: dict[str, float] = {}
    stage_counts: dict[str, int] = {}
    histograms = []
    for lane, metrics in enumerate(per_lane):
        merged.tps += metrics.tps
        merged.bps += metrics.bps
        merged.recoveries_per_second += metrics.recoveries_per_second
        merged.latency_samples.extend(metrics.latency_samples)
        if metrics.latency_histogram is not None:
            histograms.append(metrics.latency_histogram)
        for key, value in metrics.stage_breakdown.items():
            stage_totals[key] = stage_totals.get(key, 0.0) + value
            stage_counts[key] = stage_counts.get(key, 0) + 1
        for key, value in metrics.totals.items():
            merged.totals[key] = merged.totals.get(key, 0.0) + value
            if key == "tx_rejected":
                merged.totals[f"lane{lane}_tx_rejected"] = value
        for key, value in metrics.means.items():
            merged.means[key] = merged.means.get(key, 0.0) + value
            if key == "tx_rejected":
                merged.means[f"lane{lane}_tx_rejected"] = value
    merged.stage_breakdown = {key: stage_totals[key] / stage_counts[key]
                              for key in stage_totals}
    if histograms:
        combined = LatencyHistogram(bin_width=histograms[0].bin_width)
        for histogram in histograms:
            combined.merge(histogram)
        merged.latency_histogram = combined
    lane_tx = [metrics.means.get("transactions_committed", 0.0)
               for metrics in per_lane]
    total_tx = sum(lane_tx)
    if total_tx > 0:
        merged.means["lane_skew"] = max(lane_tx) / total_tx * lanes
    return merged
