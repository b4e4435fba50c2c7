"""Simulated network substrate.

Models a fully connected cluster of nodes with per-link propagation latency,
per-node egress bandwidth (NIC serialisation), a per-message/per-byte RPC
stack cost and a pluggable fault controller (drops, partitions, slow links:
a run's :class:`~repro.scenarios.faultplan.FaultSchedule`).
Two latency models mirror the paper's deployments (a single Amazon
data-center and a ten-region geo-distributed cluster);
:class:`~repro.net.latency.WanTopologyLatency` generalises them to arbitrary
multi-region topologies with per-link latency and bandwidth matrices for the
declarative scenario layer.
"""

from repro.net.latency import (
    GEO_REGIONS,
    GeoDistributedLatency,
    LatencyModel,
    SingleDatacenterLatency,
    WanTopologyLatency,
)
from repro.net.message import Message
from repro.net.network import Endpoint, Network, NetworkStats

__all__ = [
    "Message",
    "Network",
    "NetworkStats",
    "Endpoint",
    "LatencyModel",
    "SingleDatacenterLatency",
    "GeoDistributedLatency",
    "WanTopologyLatency",
    "GEO_REGIONS",
]
