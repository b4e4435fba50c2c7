"""Experiments: one point function over one grid per table/figure of the paper.

Every registered experiment is a point function — ``point(scale, **fields)``
runs one grid point and returns its rows (plain dictionaries) — plus one
ordered grid of the axes it accepts and their default values at a scale
(default well below the paper's three-minute runs, so the full suite
finishes quickly on a laptop).  Experiments are looked up by short stable
names (``table1``, ``fig05`` ... ``fig17``, ``scenario:<name>``) and run
through :mod:`repro.experiments.registry` (``registry.get(name).run(scale,
axis_values=...)``), planned over seeds and grids by
:mod:`repro.experiments.sweep`, and driven from the command line via
``python -m repro run|sweep|report``; ``EXPERIMENTS.md`` at the repo root is
the rendered record of a recorded run (regenerate it with
``python -m repro report``).
"""

from repro.experiments.harness import ExperimentScale, format_rows
from repro.experiments.registry import ExperimentSpec
from repro.experiments import registry, sweep

__all__ = [
    "ExperimentScale",
    "ExperimentSpec",
    "format_rows",
    "registry",
    "sweep",
]
