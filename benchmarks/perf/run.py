"""The repo benchmark's one command.

Driver contract (one run, last stdout line is the result object)::

    python3 benchmarks/perf/run.py --workload lan-saturated --seed 7 \
        --seconds 10 --trace 0

Everything at once, each workload in its own child process, sequentially::

    python3 benchmarks/perf/run.py --all [--seed 7] [--out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --probes

``BENCHMARK.json`` at the repo root is the single list of metric names,
units, directions and bounds; this file only fills in the values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Child starts timed for ``setup_s`` (median reported).
SETUP_SAMPLES = 7


def load_program() -> None:
    """Put ``src/`` on the path; fail before printing if it is not there."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmark: no program to measure under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    with open(SPEC_FILE) as handle:
        return json.load(handle)


# --------------------------------------------------------------- one workload
def setup_times(name: str) -> list[float]:
    """Fresh children that import the program and build the workload's spec.

    Timed from the parent (interpreter start and exit included), each start
    between two host-speed readings, in reference-host seconds.
    """
    samples = []
    reading = hostspeed.calibration_s()
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--setup-only", name], check=True)
        elapsed = time.perf_counter() - started
        after = hostspeed.calibration_s()
        samples.append(elapsed / hostspeed.speed_factor(reading, after))
        reading = after
    return samples


def setup_only(name: str) -> None:
    """What every run pays before its first repeat: imports + spec build."""
    load_program()
    import measure  # noqa: F401 - the import is the work being timed
    from workloads import BY_NAME

    BY_NAME[name].spec.summary()


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: str | None) -> int:
    """Measure one workload in this process; print the contract line."""
    load_program()
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    setup = None if trace else setup_times(name)
    import measure
    from workloads import BY_NAME

    workload = BY_NAME[name]
    correct, error = True, None
    try:
        if trace:
            outcome = measure.measure_per_layer(workload, seed, seconds)
        else:
            outcome = measure.measure_end_to_end(workload, seed, seconds)
    except (measure.GateError, AssertionError) as failure:
        # The state oracle raises StateDivergenceError (an AssertionError).
        correct, error = False, f"{type(failure).__name__}: {failure}"
        outcome = {"metrics": {}, "counts": {}, "repeats": []}
    metrics = outcome["metrics"]
    if not trace and correct:
        metrics["setup_s"] = measure.quartiles(setup)
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "n": 1}
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(metrics)) if correct else []
    if missing:
        correct, error = False, f"metrics not measured: {missing}"
    metrics = {metric_name: {**metrics[metric_name], "unit": unit}
               for metric_name, unit in units.items()
               if metric_name in metrics}
    checked = sum(repeat.counts["state_deliveries"]
                  for repeat in outcome["repeats"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": correct, "error": error,
        "attempted": max(checked, 1),
        "failed": 0 if correct else max(checked, 1),
        "repeats": len(outcome["repeats"]),
        "metrics": metrics, "counts": outcome["counts"],
    }
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    if error:
        print(f"benchmark: {name}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric_name: {"value": entry["value"],
                                  "unit": entry["unit"]}
                    for metric_name, entry in metrics.items()},
    }))
    return 0 if correct else 1


# ------------------------------------------------------------- all workloads
def format_value(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: dict, declared: list[dict]) -> None:
    for metric in declared:
        entry = record["metrics"].get(metric["name"])
        if entry is None:
            continue
        spread = ""
        if entry.get("n", 1) > 1:
            spread = (f"  [q1 {format_value(entry['q1'])}, "
                      f"q3 {format_value(entry['q3'])}, n={entry['n']}]")
        print(f"  {metric['name']:<34} {format_value(entry['value']):>12} "
              f"{metric['unit']:<8}{spread}")


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in its own child."""
    spec = load_spec()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    combined = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}")
        merged = {"end_to_end": {}, "per_layer": {}, "counts": {},
                  "correct": True}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            path = out_dir / f"{name}.trace{trace}.json"
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", str(path)],
                stdout=subprocess.DEVNULL)
            with open(path) as handle:
                record = json.load(handle)
            if child.returncode != 0 or not record["correct"]:
                status = 1
                merged["correct"] = False
                print(f"  INCORRECT: {record['error']}")
            merged[section] = record["metrics"]
            merged["counts"] = record["counts"]
            print(f" {section} (trace {trace}, {record['repeats']} repeats "
                  f"incl. warm-up)")
            print_record(record, spec[section])
        combined["workloads"][name] = merged
    if out:
        with open(out, "w") as handle:
            json.dump(combined, handle, indent=1, sort_keys=True)
    print("correctness:", "ok" if status == 0 else "FAILED")
    return status


# ------------------------------------------------------------------- compare
#: Host measurements; every other metric of a sim workload is a simulated
#: quantity or an exact count, and two runs of one commit and seed must print
#: it identically.
HOST_METRICS = {"setup_s", "wall_s_per_sim_s", "peak_rss_mb",
                "sim.wall_us_per_event", "net.deliveries_per_wall_s"}
HOST_SUFFIXES = (".self_s_per_sim_s", ".self_share")


def is_modelled(metric: str, workload: str) -> bool:
    if workload.startswith("live-"):
        return False
    return not (metric in HOST_METRICS or metric.startswith("host.")
                or metric.endswith(HOST_SUFFIXES))


def verdict(metric: dict, base: dict, new: dict, exact: bool) -> str:
    """ok / regressed / unresolved for one workload x metric cell."""
    old_value, new_value = base["value"], new["value"]
    if old_value == new_value:
        return "ok"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (new_value - old_value) / abs(old_value) if old_value else (
        sign * (new_value - old_value))
    bound = metric.get("bound")
    if exact:
        # A modelled number moved: either the model changed on purpose or a
        # host-speed change broke determinism; a person has to say which.
        return "regressed" if bound is not None and worse > bound else "unresolved"
    if bound is None or worse <= bound:
        return "ok"
    # Worse than the bound: a regression only if the two runs' quartile
    # ranges are clear of each other, otherwise the spread cannot tell.
    overlap = (min(base.get("q3", old_value), new.get("q3", new_value))
               >= max(base.get("q1", old_value), new.get("q1", new_value)))
    return "unresolved" if overlap and base.get("n", 1) > 1 else "regressed"


def compare(base_path: str, new_path: str) -> int:
    spec = load_spec()
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    header = (f"| {'workload':<20} | {'metric':<32} | {'base':>12} | "
              f"{'new':>12} | {'Diff %':>9} | {'verdict':<10} |")
    print(header)
    print("-" * len(header))
    tally = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in spec["workloads"]:
        name = workload["name"]
        for section in ("end_to_end", "per_layer"):
            old_metrics = base["workloads"].get(name, {}).get(section, {})
            new_metrics = new["workloads"].get(name, {}).get(section, {})
            for metric in spec[section]:
                old_entry = old_metrics.get(metric["name"])
                new_entry = new_metrics.get(metric["name"])
                if old_entry is None or new_entry is None:
                    mark, diff = "unresolved", "n/a"
                    old_text = new_text = "-"
                else:
                    mark = verdict(metric, old_entry, new_entry,
                                   is_modelled(metric["name"], name))
                    old_value, new_value = old_entry["value"], new_entry["value"]
                    diff = (f"{(new_value - old_value) / abs(old_value) * 100:+.2f}%"
                            if old_value else f"{new_value - old_value:+.4g}")
                    old_text = format_value(old_value)
                    new_text = format_value(new_value)
                tally[mark] += 1
                if mark == "ok" and section == "per_layer":
                    continue  # keep the table to what needs reading
                print(f"| {name:<20} | {metric['name']:<32} | {old_text:>12} | "
                      f"{new_text:>12} | {diff:>9} | {mark:<10} |")
    print(f"{tally['ok']} ok, {tally['unresolved']} unresolved, "
          f"{tally['regressed']} regressed")
    return 1 if tally["regressed"] else 0


# ---------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-only", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.setup_only)
        return 0
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds or float(load_spec()["run_seconds"])
    if args.probes:
        load_program()
        import probes

        return probes.main(args.out)
    if args.all:
        return run_all(args.seed, seconds, args.out)
    if args.workload:
        return run_workload(args.workload, args.seed, seconds,
                            bool(args.trace), args.out)
    parser.error("one of --workload, --all, --compare, --probes is required")


if __name__ == "__main__":
    sys.exit(main())
