"""Figure 10: scalability to a large cluster (the paper uses n = 100)."""

import os

from repro.experiments import ExperimentScale

from benchmarks.conftest import run_and_report


def test_fig10_scalability(benchmark, bench_scale):
    """Figure 10: scalability to a large cluster.

    The quick scale uses n = 40 to keep the event count tractable; set
    FIRELEDGER_BENCH_SCALE=full for the paper's n = 100.
    """
    full = os.environ.get("FIRELEDGER_BENCH_SCALE", "quick") == "full"
    n_nodes = 100 if full else 40
    scale = ExperimentScale(duration=0.3, warmup=0.1, workers_sweep=(1,),
                            batch_sizes=(1000,) if not full else (10, 100, 1000),
                            tx_sizes=(512,))
    rows = run_and_report(benchmark, "fig10", scale,
                          f"Figure 10 - scalability (n={n_nodes})",
                          axis_values={"cluster_size": (n_nodes,)})
    assert rows
