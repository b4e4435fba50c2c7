"""The run protocol: timed repeats, the correctness gate, the traced fold.

Everything here drives the program through its public front door,
``repro.scenarios.runner.run_scenario(spec, seed=, backend=)``.  Two things
the returned row does not carry — the :class:`ClusterResult` (network stats,
breakdown counters) and node 0's delivery times — are captured by wrapping
the ``run_cluster`` name *inside* ``repro.scenarios.runner`` for the duration
of one call and chaining a ``setup=`` hook that subscribes one observer to
node 0's public ``delivery_stream``.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.scenarios import runner
from repro.scenarios.runner import run_scenario

import hostspeed
import layers
from workloads import Workload

#: Timed repeats a run never goes below, however slow the host.
MIN_REPEATS = 3


class GateError(AssertionError):
    """A run failed the benchmark's correctness gate."""


class DeliveryObserver:
    """Subscriber of node 0's delivery stream: times and tx latencies.

    A transaction's latency is delivery time minus its submit time.  Filler
    transactions of saturated blocks are born at block assembly, so they
    share the block's ``proposed_at``; stored as (latency, weight) pairs so a
    1000-transaction block costs one append.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.tx_latencies: list[tuple[float, float, int]] = []

    def __call__(self, delivery) -> None:
        now = delivery.time
        self.times.append(now)
        latencies = self.tx_latencies
        for tx in delivery.transactions:
            latencies.append((now, now - tx.submitted_at, 1))
        filler = delivery.tx_count - len(delivery.transactions)
        if filler > 0 and delivery.proposed_at is not None:
            latencies.append((now, now - delivery.proposed_at, filler))


@contextmanager
def captured_cluster():
    """Wrap ``runner.run_cluster`` for one call; yields the capture box."""
    box: dict = {}
    original = runner.run_cluster

    def run_cluster(config, **kwargs):
        inner_setup = kwargs.get("setup")
        observer = box["observer"] = DeliveryObserver()

        def setup(env, network, nodes):
            if inner_setup is not None:
                inner_setup(env, network, nodes)
            nodes[0].delivery_stream.subscribe(observer)

        kwargs["setup"] = setup
        box["result"] = original(config, **kwargs)
        return box["result"]

    runner.run_cluster = run_cluster
    try:
        yield box
    finally:
        runner.run_cluster = original


def weighted_percentile(pairs: list[tuple[float, int]], q: float) -> float:
    """Percentile of values carrying integer weights (0.0 when empty)."""
    total = sum(weight for _, weight in pairs)
    if total == 0:
        return 0.0
    rank = q / 100.0 * (total - 1)
    seen = 0
    for value, weight in sorted(pairs):
        seen += weight
        if seen > rank:
            return value
    return pairs[-1][0]


@dataclass
class Repeat:
    """The numbers kept from one ``run_scenario`` call (the rest is freed)."""

    wall_s: float
    cpu_s: float
    #: Host-speed factor of the timed region (set by :func:`timed_repeats`).
    speed: float = 1.0
    model: dict = field(default_factory=dict)    # modelled metrics
    counts: dict = field(default_factory=dict)   # deterministic counters
    #: Everything a sim repeat of one seed must reproduce exactly.
    fingerprint: dict = field(default_factory=dict)
    profile: object = None

    @property
    def ref_wall_s(self) -> float:
        """Wall time in reference-host seconds (see :mod:`hostspeed`)."""
        return self.wall_s / self.speed


def run_once(workload: Workload, seed: int, traced: bool = False) -> Repeat:
    """One repeat: cyclic GC swept before and paused during, like timeit."""
    spec = workload.spec
    profile = cProfile.Profile() if traced else None
    with captured_cluster() as box:
        gc.collect()
        gc.disable()
        try:
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            if traced:
                rows = profile.runcall(run_scenario, spec, seed=seed,
                                       backend=workload.backend)
            else:
                rows = run_scenario(spec, seed=seed, backend=workload.backend)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        finally:
            gc.enable()
    row, result, observer = rows[0], box["result"], box["observer"]
    if result.state_root is None or result.state_deliveries <= 0:
        raise GateError(f"{workload.name}: state oracle covered "
                        f"{result.state_deliveries} deliveries")

    window = [t for t in observer.times if t >= spec.warmup]
    after_fault = [t for t in observer.times if t >= workload.first_fault_at]
    gaps = [b - a for a, b in zip(after_fault, after_fault[1:])]
    tx = [(lat, weight) for at, lat, weight in observer.tx_latencies
          if at >= spec.warmup]
    if not window or not gaps or not tx:
        raise GateError(f"{workload.name}: node 0 delivered nothing in the "
                        f"measured window")
    breakdown = result.breakdown
    # Failed operations: pool-rejected client submissions, else rounds that
    # timed out undelivered (FireLedger) or instances that did (BFT-SMaRt).
    submitted = row.get("submitted_tx", 0)
    if submitted:
        failed_ops = result.transactions_rejected
        attempted_ops = submitted + failed_ops
    else:
        failed_ops = result.failed_rounds + int(round(
            breakdown.get("instances_timed_out", 0.0)))
        attempted_ops = failed_ops + (
            result.fast_path_rounds + result.fallback_rounds
            or result.blocks_committed)
    network = result.network
    model = {
        "tps": result.tps,
        "bps": result.bps,
        "latency_p50_ms": result.latency.p50 * 1e3,
        "latency_p95_ms": result.latency.p95 * 1e3,
        "tx_latency_p50_ms": weighted_percentile(tx, 50) * 1e3,
        "tx_latency_p99_ms": weighted_percentile(tx, 99) * 1e3,
        "unavail_ms": max(gaps) * 1e3,
        "failed_op_share": failed_ops / max(attempted_ops, 1),
    }
    counts = {
        "latency_samples": result.latency.samples,
        "tx_latency_samples": sum(weight for _, weight in tx),
        "msgs_sent": network.messages_sent,
        "msgs_delivered": network.messages_delivered,
        "msgs_dropped": network.messages_dropped,
        "bytes_sent": network.bytes_sent,
        "signatures": int(round(breakdown.get("signatures", 0.0))),
        "fast_rounds": result.fast_path_rounds,
        "fallback_rounds": result.fallback_rounds,
        "failed_rounds": result.failed_rounds,
        "recoveries": result.recoveries,
        "blocks_committed": result.blocks_committed,
        "tx_committed": result.transactions_committed,
        "node0_deliveries": len(window),
        "state_deliveries": result.state_deliveries,
        "tx_applied": result.transactions_applied,
        "tx_stale": result.transactions_stale,
        "tx_rejected": result.transactions_rejected,
        "submitted_tx": submitted,
        "failed_ops": failed_ops,
        "attempted_ops": attempted_ops,
    }
    fingerprint = {**row, **counts, **model, "state_root": result.state_root}
    return Repeat(wall_s=wall, cpu_s=cpu, model=model, counts=counts,
                  fingerprint=fingerprint, profile=profile)


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and n of ``values`` (the issue's report shape)."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def check_identical(workload: Workload, repeats: list[Repeat]) -> None:
    """Sim repeats of one seed must agree on the row, root and every count."""
    if workload.live:
        return
    first = repeats[0].fingerprint
    for index, repeat in enumerate(repeats[1:], start=1):
        changed = sorted(key for key in first.keys() | repeat.fingerprint.keys()
                         if first.get(key) != repeat.fingerprint.get(key))
        if changed:
            raise GateError(
                f"{workload.name}: repeat {index} differs from repeat 0 for "
                f"the same seed in {changed}")


def timed_repeats(workload: Workload, seed: int, seconds: float,
                  min_repeats: int, traced: bool = False) -> list[Repeat]:
    """A discarded warm-up repeat, then timed repeats filling ``seconds``.

    Every timed repeat sits between two host-speed readings
    (:mod:`hostspeed`); with ``traced`` one profiled repeat is appended,
    bracketed the same way.  Returns ``[warm-up, repeat, ..., (traced)]``.
    """
    repeats = [run_once(workload, seed)]
    started = time.perf_counter()
    # A live run lasts a fixed real time whatever the host's speed, so its
    # wall time is left unscaled.
    reading = 0.0 if workload.live else hostspeed.calibration_s()

    def timed(profiled: bool = False) -> None:
        nonlocal reading
        repeat = run_once(workload, seed, traced=profiled)
        if not workload.live:
            after = hostspeed.calibration_s()
            repeat.speed = hostspeed.speed_factor(reading, after)
            reading = after
        repeats.append(repeat)

    while (len(repeats) <= min_repeats
           or time.perf_counter() - started < seconds):
        timed()
    if traced:
        timed(profiled=True)
    check_identical(workload, repeats)
    return repeats


def modelled(repeats: list[Repeat]) -> dict:
    """Modelled metrics: identical on sim, median over repeats on live."""
    return {name: quartiles([repeat.model[name] for repeat in repeats])
            for name in repeats[0].model}


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       min_repeats: int = MIN_REPEATS) -> dict:
    """The untraced run: host medians + modelled metrics (no setup/rss)."""
    repeats = timed_repeats(workload, seed, seconds, min_repeats)
    timed = repeats[1:]
    metrics = modelled(timed)
    metrics["wall_s_per_sim_s"] = quartiles(
        [repeat.ref_wall_s / workload.spec.duration for repeat in timed])
    return {"metrics": metrics, "counts": timed[-1].counts,
            "repeats": repeats}


def measure_per_layer(workload: Workload, seed: int, seconds: float,
                      min_repeats: int = 2) -> dict:
    """The traced run: untraced repeats for half the budget, then cProfile.

    The untraced repeats give the overhead base (``host.trace_overhead``)
    and ``host.warmup_over_median``; the one profiled repeat gives the layer
    fold and the pstats call counts.  Host times are in reference-host
    seconds, like ``wall_s_per_sim_s``.
    """
    repeats = timed_repeats(workload, seed, seconds / 2, min_repeats,
                            traced=True)
    warmup, timed, traced = repeats[0], repeats[1:-1], repeats[-1]
    folded = layers.fold(traced.profile)
    duration = workload.spec.duration
    wall = statistics.median(repeat.ref_wall_s for repeat in timed)
    raw_wall = statistics.median(repeat.wall_s for repeat in timed)
    # Counters come from an untraced repeat: identical to the traced one on
    # sim, and on live the profiler slows the loop and with it the workload.
    counts = timed[-1].counts
    ncalls = folded["ncalls"]

    def calls(*keys: tuple[str, str]) -> int:
        return sum(ncalls.get(key, 0) for key in keys)

    offered = 1.0
    if workload.live and counts["submitted_tx"]:
        # Generator lag: the in-loop open-loop clients fall behind a busy
        # loop, so compare against the simulated run of the same spec+seed.
        sim_row = run_scenario(workload.spec, seed=seed, backend="sim")[0]
        offered = counts["submitted_tx"] / max(sim_row["submitted_tx"], 1)

    blocks = max(counts["blocks_committed"], 1)
    tx_committed = max(counts["tx_committed"], 1)
    decided = counts["fast_rounds"] + counts["fallback_rounds"]
    sim_events = calls(("environment.py", "call_later"),
                       ("environment.py", "schedule_event"),
                       ("environment.py", "schedule_batch"))
    metrics: dict[str, float] = {}
    for layer in layers.LAYERS:
        self_s = folded["self_s"][layer]
        metrics[f"{layer}.self_s_per_sim_s"] = self_s / traced.speed / duration
        metrics[f"{layer}.self_share"] = self_s / folded["total_s"]
    metrics.update({
        "host.traced_wall_s_per_sim_s": traced.ref_wall_s / duration,
        "host.profile_over_traced_wall": folded["total_s"] / traced.wall_s,
        "host.raw_wall_s_per_sim_s": raw_wall / duration,
        "host.speed_factor": statistics.median(r.speed for r in timed),
        "host.py_calls_per_sim_s": folded["calls"] / duration,
        "host.cpu_over_wall": statistics.median(
            repeat.cpu_s / repeat.wall_s for repeat in timed),
        "host.trace_overhead": traced.ref_wall_s / wall,
        "host.warmup_over_median": warmup.wall_s / raw_wall,
        "unavail_ms": statistics.median(
            repeat.model["unavail_ms"] for repeat in timed),
        "failed_op_share": statistics.median(
            repeat.model["failed_op_share"] for repeat in timed),
        "sim.events": sim_events,
        "sim.wall_us_per_event": wall / max(sim_events, 1) * 1e6,
        "net.msgs_sent": counts["msgs_sent"],
        "net.bytes_sent": counts["bytes_sent"],
        "net.msgs_dropped": counts["msgs_dropped"],
        "net.msgs_per_block": counts["msgs_sent"] / blocks,
        "net.bytes_per_tx": counts["bytes_sent"] / tx_committed,
        "net.deliveries_per_wall_s": counts["msgs_delivered"] / wall,
        "crypto.signatures": counts["signatures"],
        "crypto.hash_calls": calls(("hashing.py", "hash_fields"),
                                   ("hashing.py", "hash_bytes"),
                                   ("hashing.py", "merkle_root")),
        "core.fast_rounds": counts["fast_rounds"],
        "core.fallback_rounds": counts["fallback_rounds"],
        "core.failed_rounds": counts["failed_rounds"],
        "core.recoveries": counts["recoveries"],
        "core.fast_path_ratio": counts["fast_rounds"] / max(decided, 1),
        "ledger.deliveries": counts["node0_deliveries"],
        "ledger.tx_per_block": tx_committed / blocks,
        "ledger.tx_applied": counts["tx_applied"],
        "ledger.tx_stale": counts["tx_stale"],
        "ledger.tx_rejected": counts["tx_rejected"],
        "metrics.record_calls": calls(("recorder.py", "record_event")),
        "workload.submitted_tx": counts["submitted_tx"],
        "workload.offered_share": offered,
    })
    return {"metrics": {name: {"value": value, "n": 1}
                        for name, value in metrics.items()},
            "counts": counts, "repeats": repeats}
