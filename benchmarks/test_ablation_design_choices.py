"""Ablation benches for the design choices DESIGN.md calls out.

Compares FireLedger with and without the header/body separation (Section
6.1.1) and with and without the benign failure detector under crash faults.
"""

import pytest

from repro import FireLedgerConfig, run_cluster
from repro.scenarios.faultplan import FaultSchedule, crash

DURATION = 0.5
WARMUP = 0.1


def _run(config, **kwargs):
    return run_cluster(config, duration=DURATION, warmup=WARMUP,
                       seed=21, **kwargs)


def test_ablation_header_body_separation(benchmark):
    """Separating headers from bodies should not hurt throughput for large blocks."""
    def scenario():
        separated = _run(FireLedgerConfig(n_nodes=4, workers=2, batch_size=1000,
                                          tx_size=512, separate_headers=True))
        merged = _run(FireLedgerConfig(n_nodes=4, workers=2, batch_size=1000,
                                       tx_size=512, separate_headers=False))
        return {"separated_tps": separated.tps, "merged_tps": merged.tps}

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print(f"\nheader/body separation ablation: {result}")
    assert result["separated_tps"] > 0
    assert result["merged_tps"] > 0


def test_ablation_failure_detector_under_crashes(benchmark):
    """The benign FD should keep crash-fault throughput at least as high."""
    def scenario():
        config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=100, tx_size=512)
        faults = FaultSchedule((crash(3, at=WARMUP / 2),))
        with_fd = _run(config, faults=faults)
        without = _run(config.with_overrides(failure_detector=False),
                       faults=faults)
        return {"with_fd_tps": with_fd.tps, "without_fd_tps": without.tps}

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print(f"\nfailure detector ablation: {result}")
    assert result["with_fd_tps"] > 0
