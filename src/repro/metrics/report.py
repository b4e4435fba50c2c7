"""Render the JSONL result store as markdown tables and EXPERIMENTS.md.

``load_results`` reads every ``*.jsonl`` file a sweep or ``repro run`` wrote,
and ``render_experiments_md`` turns them into the EXPERIMENTS.md document:
one section per experiment in paper order, each with a merged markdown table
(grid parameters as leading columns) and the paper's expected shape pulled
from the driver.  Rendering is deterministic: the same results directory
always produces byte-identical output, so EXPERIMENTS.md can be regenerated
and diffed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from repro.experiments import registry
from repro.experiments.sweep import experiment_from_stem

_EXPECTATION_KEYS = ("expectation",)

#: Execution-layer columns rendered in the dedicated "Fairness & execution"
#: section instead of every per-experiment table.
_EXECUTION_COLUMNS = (
    "state_root", "state_deliveries", "tx_applied", "tx_stale",
    "tx_invalid", "tx_conflicts", "proposer_bias", "lane_skew",
    "sender_p50_spread_ms", "sender_p99_spread_ms",
)

#: What the "Adversary strategies" section shows of a row: the headline
#: numbers, the fault drops (where selective omission shows), the oracle,
#: and every per-strategy counter (by prefix).
_ADVERSARY_COLUMNS = ("tps", "bps", "latency_p50_ms", "latency_p95_ms",
                      "msgs_dropped", "state_root", "state_deliveries")
_ADVERSARY_COUNTER_PREFIX = "adversary_"


def load_results(results_dir: "str | Path") -> dict[str, list[dict]]:
    """Read every ``<experiment>.jsonl`` under ``results_dir``.

    Returns experiment name -> records, with experiments in registry (paper)
    order and records sorted by (scale, params, config_id) so that rendering
    does not depend on the order runs happened to finish in.
    """
    results_dir = Path(results_dir)
    found: dict[str, list[dict]] = {}
    for path in sorted(results_dir.glob("*.jsonl")):
        records = []
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # tolerate a truncated trailing line
        if records:
            found[experiment_from_stem(path.stem)] = records
    known = [name for name in registry.names() if name in found]
    unknown = sorted(name for name in found if name not in set(known))
    ordered: dict[str, list[dict]] = {}
    for name in known + unknown:
        ordered[name] = sorted(
            _dedup_by_config_id(found[name]),
            key=lambda r: (str(r.get("scale", "")),
                           _params_sort_key(r.get("params", {})),
                           str(r.get("config_id", ""))))
    return ordered


def _params_sort_key(params: Mapping) -> tuple:
    """Order grid params numerically (4 < 7 < 10), mixed types by string."""
    return tuple(
        (key, (0, value, "") if isinstance(value, (int, float))
         else (1, 0, str(value)))
        for key, value in sorted(params.items()))


def _dedup_by_config_id(records: Sequence[Mapping]) -> list[dict]:
    """Keep only the last record per config_id (``--force`` re-runs append)."""
    latest: dict = {}
    extra = []  # records without an id are kept as-is
    for record in records:
        cid = record.get("config_id")
        if cid is None:
            extra.append(record)
        else:
            latest[cid] = record
    return list(latest.values()) + extra


def merged_rows(records: Sequence[Mapping]) -> list[dict]:
    """Flatten records into display rows, grid params as leading columns.

    ``scale`` and ``seed`` live on the record, not the rows; when the records
    disagree they are surfaced as prefix columns so rows stay distinguishable
    — in particular the protocol comparison must not group runs recorded at
    different seeds into one "same configuration" line.
    """
    rows: list[dict] = []
    scales = {record.get("scale") for record in records}
    seeds = {record.get("seed") for record in records}
    for record in records:
        prefix: dict = {}
        if len(scales) > 1:
            prefix["scale"] = record.get("scale")
        if len(seeds) > 1:
            prefix["seed"] = record.get("seed")
        record_rows = record.get("rows", [])
        for key in sorted(record.get("params", {})):
            # Driver rows echo an axis under its own column(s); a
            # param already visible there is not repeated as a prefix column
            # (e.g. a fig10 sweep's cluster_size duplicating the rows' 'n').
            axis = registry.AXES.get(key)
            if (record_rows and axis is not None
                    and any(echo in record_rows[0] for echo in axis.columns)):
                continue
            prefix[key] = record["params"][key]
        for row in record_rows:
            merged = dict(prefix)
            for key, value in row.items():
                merged.setdefault(key, value)
            rows.append(merged)
    return rows


def table_columns(rows: Sequence[Mapping],
                  exclude: Sequence[str] = ()) -> list[str]:
    """Union of row keys in first-seen order."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns and key not in exclude:
                columns.append(key)
    return columns


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)  # 'inf' from a zero-throughput baseline, 'nan'
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value):,}" if abs(value) >= 1000 else str(int(value))
        return f"{value:,.1f}" if abs(value) >= 1000 else f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 1000 else str(value)
    return str(value).replace("|", "\\|")


def markdown_table(rows: Sequence[Mapping],
                   columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    rows = list(rows)
    if not rows:
        return "*(no rows)*"
    columns = list(columns) if columns else table_columns(rows)
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row.get(col)) for col in columns) + " |")
    return "\n".join(lines)


_COMPARISON_BASELINE = "fireledger"
_PROTOCOL = registry.PROTOCOL.columns[0]


def _identity_columns() -> frozenset[str]:
    """The row columns that say *which configuration* a row is.

    Every axis's own columns plus the non-axis ``scenario``, ``workload`` and
    ``seed``: a lanes=4 or a realtime run is a different configuration from
    the lanes=1 simulated run of the same scenario.  The protocol comparison
    groups by them (minus the protocol it pivots on) and the cross-experiment
    sections lead with them.
    """
    return frozenset(("scenario", "workload", "seed")).union(
        *(axis.columns for axis in registry.AXES.values()))


def protocol_comparison_rows(rows: Sequence[Mapping]) -> list[dict]:
    """Pivot result rows into a head-to-head protocol comparison.

    Rows that ran the *same configuration* under different ``protocol``
    values (a ``--protocol``/``--axis protocol=...`` sweep) collapse into one
    comparison row: the shared grid columns, per-protocol ``tps_<name>`` and
    ``p50_ms_<name>`` columns, and — when FireLedger is among them — the
    paper's headline ``fireledger_over_<name>`` speedup ratios.  Returns an
    empty list when fewer than two protocols are present.
    """
    protocols: list[str] = []
    for row in rows:
        name = row.get(_PROTOCOL)
        if name and name not in protocols:
            protocols.append(name)
    if len(protocols) < 2:
        return []
    if _COMPARISON_BASELINE in protocols:  # the paper's protocol leads
        protocols.remove(_COMPARISON_BASELINE)
        protocols.insert(0, _COMPARISON_BASELINE)
    identifying = _identity_columns() - {_PROTOCOL}
    id_columns = [column for column in table_columns(rows)
                  if column in identifying]
    grouped: dict[tuple, dict[str, Mapping]] = {}
    order: list[tuple] = []
    for row in rows:
        name = row.get(_PROTOCOL)
        if not name:
            continue
        key = tuple(row.get(column) for column in id_columns)
        if key not in grouped:
            grouped[key] = {}
            order.append(key)
        grouped[key].setdefault(name, row)
    comparison: list[dict] = []
    for key in order:
        per_protocol = grouped[key]
        if len(per_protocol) < 2:
            continue
        out = dict(zip(id_columns, key))
        for name in protocols:
            row = per_protocol.get(name)
            out[f"tps_{name}"] = row.get("tps") if row else None
        baseline = per_protocol.get(_COMPARISON_BASELINE)
        baseline_tps = baseline.get("tps") if baseline else None
        if baseline_tps:
            for name in protocols:
                if name == _COMPARISON_BASELINE:
                    continue
                row = per_protocol.get(name)
                tps = row.get("tps") if row else None
                out[f"fireledger_over_{name}"] = (
                    round(baseline_tps / tps, 2) if tps else None)
        for name in protocols:
            row = per_protocol.get(name)
            out[f"p50_ms_{name}"] = row.get("latency_p50_ms") if row else None
        comparison.append(out)
    return comparison


def _shared_expectation(rows: Sequence[Mapping]) -> Optional[str]:
    """If every row carries the same 'expectation' note, factor it out."""
    for key in _EXPECTATION_KEYS:
        values = {row.get(key) for row in rows if key in row}
        if len(values) == 1 and None not in values and all(key in r for r in rows):
            return next(iter(values))
    return None


def _scenario_spec(name: str):
    """The ScenarioSpec behind a ``scenario:<name>`` section, if any."""
    from repro.scenarios import library

    return library.lookup(name) if name.startswith(library.PREFIX) else None


def render_experiment_section(name: str, records: Sequence[Mapping]) -> str:
    try:
        spec = registry.get(name)
        title, description = spec.title, spec.description
    except KeyError:
        title, description = name, ""
    rows = merged_rows(records)
    scales = sorted({str(record.get("scale", "?")) for record in records})
    seeds = sorted({record.get("seed") for record in records
                    if record.get("seed") is not None})
    lines = [f"## {title}", ""]
    if description:
        lines += [description, ""]
    scenario = _scenario_spec(name)
    if scenario is not None:
        flags = {axis.keyword: axis.flag for axis in registry.AXES.values()}
        for key, text in scenario.summary().items():
            note = (f" (default; sweep with `{flags[key]}`)"
                    if key in flags else "")
            lines.append(f"- **{key.capitalize()}:** {text}{note}")
        lines += [
            f"- **Run:** {scenario.duration:g}s simulated "
            f"({scenario.warmup:g}s warmup), defaults n={scenario.n_nodes}, "
            f"workers={scenario.workers}, batch={scenario.batch_size}",
            "",
        ]
    meta = (f"*{len(records)} configuration(s), {len(rows)} row(s); "
            f"scale: {', '.join(scales)}; "
            f"seed(s): {', '.join(str(s) for s in seeds) or '?'}.*")
    lines += [meta, ""]
    expectation = _shared_expectation(rows)
    exclude = _EXECUTION_COLUMNS + (_EXPECTATION_KEYS if expectation else ())
    if expectation:
        lines += [f"Paper expectation: {expectation}.", ""]
    lines += [markdown_table(rows, table_columns(rows, exclude=exclude)), ""]
    comparison = protocol_comparison_rows(rows)
    if comparison:
        lines += [
            "**Head-to-head protocol comparison** (same configuration, "
            "protocol swapped):",
            "",
            markdown_table(comparison),
            "",
        ]
    return "\n".join(lines)


def _projected_rows(results: Mapping[str, Sequence[Mapping]], having: str,
                    wanted: Callable[[str], bool]) -> list[dict]:
    """Every merged row that has column ``having``, projected.

    Feeds the cross-experiment sections: one line per (experiment,
    configuration), led by the experiment name (in ``scenario``'s place) and
    every identity column any of the rows has (``adversary`` exists on
    Byzantine rows only, and must not trail the metrics for it), then the
    columns ``wanted`` picks in the row's own order.
    """
    identity = (_identity_columns() - {"scenario"}) | {"experiment"}
    rows = [{"experiment": name, **row} for name, records in results.items()
            for row in merged_rows(records) if having in row]
    lead = [column for column in table_columns(rows) if column in identity]
    return [{**{column: row.get(column) for column in lead},
             **{key: value for key, value in row.items() if wanted(key)}}
            for row in rows]


def render_fairness_section(results: Mapping[str, Sequence[Mapping]]) -> str:
    """The cross-experiment "Fairness & execution" section (or '').

    One line per row that reports a state root: the agreed cross-node
    ``state_root``, the account-machine outcome counters and the fairness
    metrics.
    """
    rows = _projected_rows(results, "state_root",
                           _EXECUTION_COLUMNS.__contains__)
    if not rows:
        return ""
    lines = [
        "## Fairness & execution",
        "",
        "Scenarios with the execution layer enabled replay every delivered",
        "transaction through a per-node account state machine and fold the",
        "outcome into a rolling `state_root`.  The cluster harness asserts",
        "the root identical across all non-Byzantine nodes at their longest",
        "common delivered prefix (`state_deliveries` blocks) — a per-run",
        "state-agreement oracle for all three protocols, with retention on",
        "or off.  Outcome counters: `tx_applied` (balance moved),",
        "`tx_stale` (nonce below the account's expected value — e.g. two",
        "clients sharing a sender), `tx_invalid` (insufficient balance;",
        "consumes the nonce), `tx_conflicts` (same account touched more",
        "than once inside one block — read-write contention).  Fairness:",
        "`sender_p50_spread_ms`/`sender_p99_spread_ms` are the max-min",
        "spread of per-sender commit-latency percentiles (0 = every sender",
        "served alike), and `proposer_bias` is the largest per-proposer",
        "share of delivered transactions scaled by cluster size (1.0 = fair",
        "rotation, n = one static leader proposes everything).  Runs with",
        "`lanes` > 1 also report `lane_skew`: the largest per-lane share of",
        "committed transactions scaled by lane count (1.0 = perfectly even",
        "slicing, M = all traffic hashed to one lane).",
        "",
        markdown_table(rows),
        "",
    ]
    return "\n".join(lines)


def render_adversary_section(results: Mapping[str, Sequence[Mapping]]) -> str:
    """The cross-experiment "Adversary strategies" section (or '').

    One line per row of a scenario with Byzantine nodes: the strategy
    driving them, the protocol it ran against, headline throughput/latency,
    the network's fault drops, the strategy's own ``adversary_*`` counters
    and the state-agreement oracle columns.
    """
    rows = _projected_rows(
        results, registry.ADVERSARY.columns[0],
        lambda key: (key in _ADVERSARY_COLUMNS
                     or key.startswith(_ADVERSARY_COUNTER_PREFIX)))
    if not rows:
        return ""
    lines = [
        "## Adversary strategies",
        "",
        "Every row of a scenario whose fault schedule has Byzantine nodes:",
        "the named strategy (`src/repro/adversary/`; the spec's own unless",
        "`--adversary` swept another) controls how they misbehave, and",
        "composes with every registered protocol —",
        "`equivocate`/`targeted-equivocate` substitute a",
        "conflicting-header proposer on FireLedger (degrading to fail-stop",
        "silence on the leader-driven baselines), `silent` is fail-stop,",
        "`delayed-release` holds the adversary's outbound traffic,",
        "`selective-omission` starves a victim set, and `churn` cycles the",
        "adversary's nodes through crash/recover.  Per-strategy counters",
        "(`adversary_equivocations`, `adversary_delayed_msgs`,",
        "`adversary_departures`...) quantify the injected misbehaviour;",
        "the copies `selective-omission` withholds are fault drops on the",
        "run's one timeline, counted in `msgs_dropped` (with those lost to",
        "a crashed receiver).  `state_root` is the cross-node",
        "state-agreement oracle over the honest majority — identical roots",
        "mean safety held under the attack.",
        "",
        markdown_table(rows),
        "",
    ]
    return "\n".join(lines)


def _scenario_preamble() -> list[str]:
    """The generated "scenarios" note: shipped names + how to write one."""
    from repro.scenarios import library

    lines = [
        "## Scenarios",
        "",
        "Beyond the paper's figures, the repo ships declarative *scenarios*",
        "(`src/repro/scenarios/`): one spec composes a WAN topology, a",
        "workload shape and a fault timeline, and runs via",
        "`python -m repro run scenario:<name>` (sweepable over",
        "`--cluster-sizes` / `--workers` / `--protocol` / `--lanes` /",
        "`--adversary` like any experiment; every scenario runs under any",
        "registered consensus protocol — fireledger, hotstuff, bftsmart —",
        "`--lanes M` multiplexes M independent instances of it over the same",
        "cluster, merged into one total order, and `--adversary` picks how",
        "the fault schedule's Byzantine nodes misbehave).  Shipped:",
        "",
    ]
    for name in library.names():
        spec = library.get(name)
        lines.append(f"- `scenario:{name}` — {spec.description}")
    lines += [
        "",
        "New scenarios are specs, not code — see \"Writing a scenario\" in",
        "README.md for a worked TOML/dict example.",
        "",
    ]
    return lines


def render_experiments_md(results: Mapping[str, Sequence[Mapping]]) -> str:
    """Render the full EXPERIMENTS.md document from loaded results."""
    lines = [
        "# FireLedger — Experiment Results",
        "",
        "Reproduction of the evaluation tables/figures of *FireLedger: A High",
        "Throughput Blockchain Consensus Protocol* (Buchnik & Friedman, VLDB",
        "2020), Section 7, on the deterministic simulator in `src/repro/`.",
        "",
        "This file is generated — do not edit by hand.  Every record under",
        "`results/` was written by one recipe at default scale, seed 7:",
        "",
        "```bash",
        "results/rerecord.sh          # delete results/*.jsonl, `run --all`, the",
        "                             # protocol / lanes / adversary sweeps, `report`",
        "python -m repro report       # or only rewrite this file from results/",
        "```",
        "",
        "`run` and `sweep` write the same thing — one record per grid point,",
        "identified by its `config_id` — so either resumes against the other,",
        "serially or over `--jobs N` worker processes.  The simulator is",
        "deterministic by seed: re-running the recipe reproduces every",
        "simulated row exactly, which is how a refactor proves itself",
        "result-neutral against this tree (`memfootprint`, `calibrate` and",
        "`backend = realtime` rows are host measurements and do not).",
        "",
        "Absolute numbers depend on the calibrated crypto/network cost models",
        "and are smaller than the paper's three-minute cluster runs; the",
        "*shapes* (what grows, what saturates, what collapses) are the point",
        "of comparison.  Each section quotes the paper's expected shape.",
        "`memfootprint` is different: it measures the host side, contrasting live",
        "blocks/records and peak memory with the bounded-memory retention",
        "policy off vs on — flat in run length when on, linear when off, at",
        "identical throughput (see \"Memory model & retention\" in",
        "ARCHITECTURE.md).",
        "",
    ]
    lines += _scenario_preamble()
    if not results:
        lines += ["*(no results recorded yet — run `python -m repro run --all`)*", ""]
        return "\n".join(lines)
    lines += ["## Contents", ""]
    for name in results:
        try:
            title = registry.get(name).title
        except KeyError:
            title = name
        anchor = (title.lower().replace(" ", "-")
                  .translate(str.maketrans("", "", ",/—–.()")))
        lines.append(f"- [{title}](#{anchor})")
    adversary = render_adversary_section(results)
    if adversary:
        lines.append("- [Adversary strategies](#adversary-strategies)")
    fairness = render_fairness_section(results)
    if fairness:
        lines.append("- [Fairness & execution](#fairness--execution)")
    lines.append("")
    for name, records in results.items():
        lines.append(render_experiment_section(name, records))
    if adversary:
        lines.append(adversary)
    if fairness:
        lines.append(fairness)
    return "\n".join(lines).rstrip() + "\n"


def write_csv(records: Sequence[Mapping], path: "str | Path") -> None:
    """Write one experiment's merged rows as CSV."""
    rows = merged_rows(records)
    columns = table_columns(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: ("" if row.get(col) is None else row.get(col))
                         for col in columns})
    path.write_text(buffer.getvalue())
