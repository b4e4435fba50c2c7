"""Measurement plumbing: throughput, latency, per-round event breakdown.

:mod:`repro.metrics.report` renders the JSONL result store written by
``python -m repro run|sweep`` as markdown/CSV, including EXPERIMENTS.md.
It is not re-exported here to keep importing the recorder cheap.
"""

from repro.metrics.recorder import (
    BLOCK_EVENTS,
    EVENT_BLOCK_PROPOSAL,
    EVENT_DEFINITE_DECISION,
    EVENT_FLO_DELIVERY,
    EVENT_HEADER_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
    MetricsRecorder,
    NodeMetrics,
)
from repro.metrics.summary import (
    LatencyHistogram,
    LatencySummary,
    ThroughputSummary,
    percentile,
)

__all__ = [
    "MetricsRecorder",
    "NodeMetrics",
    "BLOCK_EVENTS",
    "EVENT_BLOCK_PROPOSAL",
    "EVENT_HEADER_PROPOSAL",
    "EVENT_TENTATIVE_DECISION",
    "EVENT_DEFINITE_DECISION",
    "EVENT_FLO_DELIVERY",
    "ThroughputSummary",
    "LatencyHistogram",
    "LatencySummary",
    "percentile",
]
