"""Figure 12: throughput and recovery rate under Byzantine equivocation."""

from benchmarks.conftest import run_and_report
from repro.experiments import ExperimentScale

#: (n, batch, workers, tps, recoveries_per_sec, recoveries) at quick scale,
#: seed 7, recorded from the ``byzantine_nodes=frozenset({n - 1})`` spelling
#: before ``faults=FaultSchedule((byzantine(n - 1),))`` replaced it.
PINNED_QUICK = [
    (4, 10, 1, 67, 5.56, 21), (4, 10, 4, 367, 536.67, 568),
    (4, 1000, 1, 20000, 6.67, 9), (4, 1000, 4, 0, 22.22, 20),
    (10, 10, 1, 133, 16.3, 62), (10, 10, 4, 1544, 51.85, 176),
    (10, 1000, 1, 0, 6.67, 18), (10, 1000, 4, 8889, 0.0, 0),
]


def test_fig12_byzantine_failures(benchmark, bench_scale):
    """Figure 12: throughput and recovery rate under Byzantine equivocation."""
    rows = run_and_report(benchmark, "fig12", bench_scale)
    assert rows
    if bench_scale == ExperimentScale.quick():
        keys = ("n", "batch", "workers", "tps", "recoveries_per_sec",
                "recoveries")
        assert [tuple(row[key] for key in keys) for row in rows] == PINNED_QUICK
