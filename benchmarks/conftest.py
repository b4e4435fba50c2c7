"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (short simulated duration, representative parameter subset), prints the
resulting rows next to the paper's expectation and records the wall-clock cost
of regenerating it through pytest-benchmark.  Drivers are resolved through
:mod:`repro.experiments.registry` — the same front door the
``python -m repro`` CLI uses — so each test names its experiment (``fig07``,
``table1``, ...) instead of importing the driver function.  Set
FIRELEDGER_BENCH_SCALE=full to run the paper's full grid (slow).
"""

import os

import pytest

from repro.experiments import ExperimentScale, figures, format_rows, registry


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Scale used by all benchmarks (quick by default)."""
    if os.environ.get("FIRELEDGER_BENCH_SCALE", "quick") == "full":
        return ExperimentScale.full()
    return ExperimentScale.quick()


@pytest.fixture(scope="session")
def c5_rows(bench_scale) -> dict:
    """Figures 16 and 17 from one pass: both plot the same nine FireLedger
    c5.4xlarge runs (same configurations, same seed) against a different
    baseline, and those runs are >90% of either figure's cost."""
    return figures.c5_comparison(("hotstuff", "bftsmart"), bench_scale)


def run_and_report(benchmark, experiment, scale, title=None,
                   axis_values=None):
    """Run a registered experiment once under pytest-benchmark, print its rows.

    ``experiment`` is a registry name (``"fig07"``); ``axis_values``
    overrides the defaults of its grid's axes, as ``--cluster-sizes`` etc.
    do on the command line.
    """
    spec = registry.get(experiment)
    rows = benchmark.pedantic(
        lambda: spec.run(scale, axis_values=axis_values),
        rounds=1, iterations=1)
    print(f"\n=== {title or spec.title} ===")
    print(format_rows(rows))
    return rows
