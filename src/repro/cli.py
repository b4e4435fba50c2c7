"""Command-line front door: ``python -m repro`` / ``fireledger-repro``.

Three subcommands turn the repo from a test suite into a drivable
evaluation system:

* ``run``    — execute one figure/table driver or declarative scenario
  (``scenario:<name>``), or ``--all``, at a chosen scale, print its rows and
  append them to the JSONL result store;
* ``sweep``  — run a cartesian grid of configurations for one driver,
  resumable; both write one JSONL record per grid point through the same
  planner and executor, so each resumes against the other;
* ``report`` — read the result store and regenerate EXPERIMENTS.md (and
  optionally per-experiment CSVs) deterministically;
* ``list``   — show every registered experiment and its sweepable axes.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import parallel, registry, sweep
from repro.experiments.harness import ExperimentScale, format_rows
from repro.metrics import report

SCALES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale,
    "full": ExperimentScale.full,
}


def _value_list(parse: type):
    """``argparse`` type for ``"4,7,10"`` / ``"fireledger,hotstuff"`` lists."""
    def parse_list(text: str) -> tuple:
        try:
            values = tuple(parse(part.strip()) for part in text.split(",")
                           if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {parse.__name__} values, "
                f"got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values
    return parse_list


_int_list = _value_list(int)


def _axis_assignment(text: str) -> tuple[str, tuple]:
    """Parse a generic ``--axis NAME=V1,V2`` assignment.

    ``NAME`` is a canonical axis name (dashes allowed); the values go
    through that axis's own parser, so ``--axis protocol=fireledger,hotstuff``
    and ``--axis cluster-size=4,7`` both work.
    """
    name, sep, rest = text.partition("=")
    name = name.strip().replace("-", "_")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=V1[,V2...], got {text!r}")
    if name not in registry.AXES:
        raise argparse.ArgumentTypeError(
            f"unknown axis {name!r}; known: {', '.join(registry.AXES)}")
    return name, _value_list(registry.AXES[name].parse)(rest)


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=sorted(SCALES), default="default",
                        help="preset experiment scale (default: default)")
    parser.add_argument("--seed", type=_int_list, default=None,
                        metavar="S,S",
                        help="simulation seed(s); several run seed-major, "
                             "one record per seed and grid point")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the simulated duration (seconds)")
    parser.add_argument("--warmup", type=float, default=None,
                        help="override the simulated warmup (seconds)")


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1 = serial); "
                             "results are merged and deduplicated by "
                             "config_id, so resume works as in serial mode")
    parser.add_argument("--results-dir", default=sweep.RESULTS_DIR_DEFAULT,
                        help="JSONL result store (default: results/)")
    parser.add_argument("--force", action="store_true",
                        help="re-run and re-record configurations already "
                             "in the result store")


def _add_axis_options(parser: argparse.ArgumentParser) -> None:
    for axis in registry.AXES.values():
        parser.add_argument(axis.flag, type=_value_list(axis.parse),
                            default=None, metavar=axis.metavar,
                            help=axis.help)
    parser.add_argument("--axis", type=_axis_assignment, action="append",
                        default=None, metavar="NAME=V,V",
                        help="generic axis assignment, e.g. "
                             "--axis protocol=fireledger,hotstuff "
                             "(repeatable; overrides the dedicated flags)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fireledger-repro",
        description="Run, sweep and report the FireLedger paper experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one experiment driver (or --all) and print its rows")
    run.add_argument("experiment", nargs="?", default=None,
                     help="registry name, e.g. fig07, table1 or "
                          "scenario:paper-lan (see 'list')")
    run.add_argument("--all", action="store_true", dest="run_all",
                     help="run every registered experiment")
    _add_scale_options(run)
    _add_axis_options(run)
    _add_store_options(run)
    run.add_argument("--no-record", action="store_true",
                     help="print only; do not append to the result store")
    run.add_argument("--markdown", action="store_true",
                     help="print a markdown table instead of aligned text")

    swp = sub.add_parser(
        "sweep", help="run a cartesian grid for one driver, one JSONL "
                      "record per configuration (resumable)")
    swp.add_argument("experiment",
                     help="registry name, e.g. fig10 or scenario:geo-5region")
    _add_scale_options(swp)
    _add_axis_options(swp)
    _add_store_options(swp)

    rep = sub.add_parser(
        "report", help="render the result store as EXPERIMENTS.md")
    rep.add_argument("--results-dir", default=sweep.RESULTS_DIR_DEFAULT,
                     help="JSONL result store to read (default: results/)")
    rep.add_argument("--output", default="EXPERIMENTS.md",
                     help="markdown file to write (default: EXPERIMENTS.md)")
    rep.add_argument("--csv-dir", default=None,
                     help="also write one CSV per experiment into this dir")
    rep.add_argument("--stdout", action="store_true",
                     help="print the markdown instead of writing a file")

    sub.add_parser("list", help="list registered experiments and their axes")
    return parser


def _resolve_scales(args: argparse.Namespace) -> list[ExperimentScale]:
    """The preset with its overrides, once per ``--seed`` value."""
    scale = SCALES[args.scale]()
    overrides = {name: getattr(args, name) for name in ("duration", "warmup")
                 if getattr(args, name) is not None}
    return [replace(scale, **overrides, seed=seed)
            for seed in (args.seed or (scale.seed,))]


def _effective_scales(spec, scales: list[ExperimentScale],
                      args: argparse.Namespace, out) -> list[ExperimentScale]:
    """Strip duration/warmup overrides for drivers that pin their own.

    Scenario fault-phase times are absolute simulated seconds, so a scenario
    spec pins its run length; honouring ``--duration`` would silently skip
    scheduled faults, and hashing the ignored override into ``config_id``
    would make the identical run look like a new configuration.
    """
    if not spec.pins_duration:
        return scales
    if args.duration is not None or args.warmup is not None:
        print(f"note: {spec.name} pins its own simulated duration/warmup; "
              f"ignoring --duration/--warmup", file=out)
    preset = SCALES[args.scale]()
    return [replace(scale, duration=preset.duration, warmup=preset.warmup)
            for scale in scales]


def _axis_values(args: argparse.Namespace) -> dict[str, tuple]:
    values = {}
    for name, axis in registry.AXES.items():
        given = getattr(args, axis.dest)
        if given is not None:
            values[name] = given
    for name, axis_values in (args.axis or ()):
        values[name] = axis_values
    return values


def _cmd_run(args: argparse.Namespace, out) -> int:
    if args.run_all == (args.experiment is not None):
        print("error: give exactly one experiment name, or --all", file=sys.stderr)
        return 2
    names = registry.names() if args.run_all else [args.experiment]
    scales = _resolve_scales(args)
    axis_values = _axis_values(args)
    # One plan for both commands: ``run`` is a sweep of every named driver
    # that also prints what it ran, one record per grid point either way.
    plans: list[tuple] = []
    for name in names:
        try:
            spec = registry.get(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        applicable = axis_values
        if args.run_all:
            # With --all, apply each axis override only to the drivers that
            # have that axis; table1 etc. run at their fixed configuration.
            applicable = {axis: vals for axis, vals in axis_values.items()
                          if axis in spec.axes}
        try:
            # Truncates past per-axis limits (e.g. fig10 consumes at most two
            # worker counts), so the recorded parameters match what ran.
            applicable = spec.normalize_axis_values(applicable)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        plans.append((spec, _effective_scales(spec, scales, args, out),
                      applicable))

    outcomes = parallel.run_planned(
        plans, None if args.no_record else args.results_dir, args.scale,
        force=args.force, jobs=args.jobs,
        progress=lambda msg: print(msg, file=out))
    for (spec, spec_scales, _axes), planned in zip(plans, outcomes):
        records = [outcome for outcome in planned if outcome is not None]
        if not records:
            continue  # every point already recorded
        rejected = next((record for record in records
                         if isinstance(record, ValueError)), None)
        if rejected is not None:
            if args.run_all:
                # e.g. a scenario whose fault schedule references nodes
                # outside an overridden cluster size: skip it rather than
                # aborting every other driver in the batch.
                print(f"{spec.name}: skipped ({rejected})", file=out)
                continue
            print(f"error: {rejected}", file=sys.stderr)
            return 2
        rows = [row for record in records for row in record["rows"]]
        print(f"=== {spec.title} ===", file=out)
        renderer = report.markdown_table if args.markdown else format_rows
        print(renderer(rows), file=out)
        elapsed = sum(record["elapsed_s"] for record in records)
        seeds = ",".join(str(scale.seed) for scale in spec_scales)
        print(f"({len(rows)} rows, scale={args.scale}, seed={seeds}, "
              f"{elapsed:.1f}s)", file=out)
        if not args.no_record:
            print(f"recorded -> "
                  f"{sweep.results_path(args.results_dir, spec.name)}",
                  file=out)
    return 0


def _cmd_sweep(args: argparse.Namespace, out) -> int:
    try:
        spec = registry.get(args.experiment)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    axes = _axis_values(args)
    if not axes and args.seed is None:
        flags = " ".join(axis.flag for axis in registry.AXES.values())
        print(f"error: sweep needs at least one grid axis ({flags} or --seed)",
              file=sys.stderr)
        return 2
    scales = _effective_scales(spec, _resolve_scales(args), args, out)
    try:
        (planned,) = parallel.run_planned(
            [(spec, scales, axes)], args.results_dir, args.scale,
            force=args.force, jobs=args.jobs,
            progress=lambda msg: print(msg, file=out))
        for outcome in planned:
            if isinstance(outcome, ValueError):
                raise outcome  # a point the driver rejected
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep {spec.name}: {len(planned) - planned.count(None)} ran, "
          f"{planned.count(None)} skipped -> "
          f"{sweep.results_path(args.results_dir, spec.name)}", file=out)
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    results = report.load_results(args.results_dir)
    text = report.render_experiments_md(results)
    if args.stdout:
        print(text, end="", file=out)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} "
              f"({len(results)} experiment(s) from {args.results_dir}/)", file=out)
    if args.csv_dir:
        for name, records in results.items():
            report.write_csv(records,
                             Path(args.csv_dir) / f"{sweep.file_stem(name)}.csv")
        print(f"wrote {len(results)} CSV file(s) to {args.csv_dir}/", file=out)
    return 0


def _cmd_list(out) -> int:
    rows = [{"name": spec.name,
             "axes": ", ".join(sorted(spec.axes)) or "-",
             "title": spec.title}
            for spec in registry.specs()]
    print(format_rows(rows, columns=["name", "axes", "title"]), file=out)
    from repro import adversary

    print(f"\nadversary strategies (scenario --adversary axis): "
          f"{', '.join(sorted(adversary.names()))}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "report":
            return _cmd_report(args, out)
        if args.command == "list":
            return _cmd_list(out)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        # Point stdout at devnull so the interpreter's exit-time flush of the
        # dead pipe can't raise again (which would turn exit 0 into 120).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
