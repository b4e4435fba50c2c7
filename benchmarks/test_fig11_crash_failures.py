"""Figure 11: throughput under crash failures of f nodes."""

from benchmarks.conftest import run_and_report
from repro.experiments import ExperimentScale

#: (n, f_crashed, batch, workers, tps, failed_rounds) at quick scale, seed 7,
#: recorded from the ``crash_schedule=CrashSchedule.crash_f_nodes(...)``
#: spelling before ``faults=FaultSchedule((crash(...),))`` replaced it: the
#: one fault argument must reproduce the retired one exactly.
PINNED_QUICK = [
    (4, 1, 10, 1, 3000, 93), (4, 1, 10, 4, 11211, 342),
    (4, 1, 1000, 1, 173333, 87), (4, 1, 1000, 4, 213333, 252),
    (10, 3, 10, 1, 0, 14), (10, 3, 10, 4, 0, 56),
    (10, 3, 1000, 1, 0, 14), (10, 3, 1000, 4, 0, 56),
]


def test_fig11_crash_failures(benchmark, bench_scale):
    """Figure 11: throughput under crash failures of f nodes."""
    rows = run_and_report(benchmark, "fig11", bench_scale)
    assert rows
    if bench_scale == ExperimentScale.quick():
        keys = ("n", "f_crashed", "batch", "workers", "tps", "failed_rounds")
        assert [tuple(row[key] for key in keys) for row in rows] == PINNED_QUICK
