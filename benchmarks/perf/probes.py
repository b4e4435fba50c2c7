"""Layer probes: fixed-count timings of public calls, one number each.

A probe answers "what does one call into this layer cost on this host" with
no protocol around it, so a change to one layer can be checked in a second
before the end-to-end workloads are run.  Probes carry no bound and are not
part of ``BENCHMARK.json``: they are a microscope, not a gate.  Each value is
the median of :data:`ROUNDS` rounds of a fixed operation count, timed with
the cyclic GC paused (the same policy as the workload repeats).
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from pathlib import Path

from repro.crypto.hashing import hash_fields, merkle_root
from repro.crypto.keys import KeyStore
from repro.ledger.block import build_block
from repro.ledger.chain import Blockchain
from repro.ledger.state import LedgerExecutor
from repro.ledger.transaction import Transaction
from repro.ledger.txpool import TxPool
from repro.metrics.recorder import BLOCK_EVENTS, MetricsRecorder
from repro.metrics.report import load_results, render_experiments_md
from repro.net.latency import SingleDatacenterLatency
from repro.net.network import Network
from repro.runtime import RealtimeEnvironment, RealtimeNetwork
from repro.sim import Environment

ROUNDS = 3
RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"


def _noop(_arg) -> None:
    return None


def sim_timer(count: int = 200_000) -> float:
    """``call_later`` + ``run``: one pooled timer scheduled and fired."""
    env = Environment()
    rng = random.Random(1)
    delays = [rng.random() for _ in range(count)]
    started = time.perf_counter()
    for delay in delays:
        env.call_later(delay, _noop)
    env.run()
    return (time.perf_counter() - started) / count


def sim_train_delivery(trains: int = 2_000, fanout: int = 99) -> float:
    """``schedule_batch``: one entry of a broadcast delivery train."""
    env = Environment()
    rng = random.Random(2)
    args = list(range(fanout))
    batches = [[1.0 + index * 1e-3 + rng.random() * 1e-3 for _ in args]
               for index in range(trains)]
    started = time.perf_counter()
    for times in batches:
        env.schedule_batch(times, args, _noop)
    env.run()
    return (time.perf_counter() - started) / (trains * fanout)


def net_broadcast_delivery(n_nodes: int = 100, rounds: int = 4_000) -> float:
    """The ``broadcast_storm`` shape: one delivered copy of a broadcast."""
    env = Environment()
    network = Network(env, n_nodes, latency_model=SingleDatacenterLatency())

    def storm():
        for round_number in range(rounds):
            network.broadcast(round_number % n_nodes, "bench", "PING", None,
                              size_bytes=256)
            yield env.timeout(1e-4)

    env.process(storm())
    started = time.perf_counter()
    env.run()
    return (time.perf_counter() - started) / (rounds * (n_nodes - 1))


def net_send(count: int = 100_000) -> float:
    """``Network.send`` + delivery of one unicast message."""
    env = Environment()
    network = Network(env, 4, latency_model=SingleDatacenterLatency())
    started = time.perf_counter()
    for index in range(count):
        network.send(index % 4, (index + 1) % 4, "bench", "PING", None,
                     size_bytes=256)
    env.run()
    return (time.perf_counter() - started) / count


def crypto_hash_fields(count: int = 200_000) -> float:
    started = time.perf_counter()
    for index in range(count):
        hash_fields("tx", index, 3, 512)
    return (time.perf_counter() - started) / count


def crypto_merkle_leaf(leaves: int = 1_000, trees: int = 100) -> float:
    """``merkle_root`` per leaf of a 1000-transaction body."""
    digests = [hash_fields("leaf", index) for index in range(leaves)]
    started = time.perf_counter()
    for _ in range(trees):
        merkle_root(digests)
    return (time.perf_counter() - started) / (leaves * trees)


def crypto_sign_verify(count: int = 100_000) -> float:
    keystore = KeyStore(4)
    key = keystore.key_for(1)
    digest = hash_fields("header", 1)
    started = time.perf_counter()
    for _ in range(count):
        keystore.verify(key.sign(digest), 1, digest)
    return (time.perf_counter() - started) / count


def _transfers(count: int) -> list[Transaction]:
    rng = random.Random(3)
    return [Transaction.create(client_id=index % 16, size_bytes=512,
                               payload_seed=rng.randrange(2 ** 62),
                               sender=index % 64, recipient=(index * 7) % 64,
                               amount=index % 100, nonce=index // 64)
            for index in range(count)]


def ledger_pool_tx(count: int = 100_000, batch: int = 100) -> float:
    """``TxPool.submit`` + ``take_batch`` per transaction."""
    transactions = _transfers(count)
    pool = TxPool(rng=random.Random(4))
    started = time.perf_counter()
    for transaction in transactions:
        pool.submit(transaction)
    while len(pool):
        pool.take_batch(batch, fill_random=False)
    return (time.perf_counter() - started) / count


def ledger_execute_tx(count: int = 100_000, batch: int = 100) -> float:
    """``LedgerExecutor.apply_delivery`` per executed transfer."""
    transactions = _transfers(count)
    executor = LedgerExecutor(n_accounts=64, initial_balance=100_000)
    blocks = [tuple(transactions[start:start + batch])
              for start in range(0, count, batch)]
    started = time.perf_counter()
    for tag, block in enumerate(blocks):
        executor.apply_delivery(tag, block, tx_count=len(block), proposer=0)
    return (time.perf_counter() - started) / count


def ledger_append(count: int = 20_000) -> float:
    """``build_block`` + ``Blockchain.append`` of one saturated block."""
    chain = Blockchain(finality_depth=3)
    pool = TxPool(rng=random.Random(5))
    started = time.perf_counter()
    for round_number in range(count):
        chain.append(build_block(round_number, round_number % 4,
                                 chain.head.digest,
                                 batch=pool.take_batch(1000)))
    return (time.perf_counter() - started) / count


def metrics_record_event(rounds: int = 40_000) -> float:
    recorder = MetricsRecorder(node_id=0)
    started = time.perf_counter()
    for round_number in range(rounds):
        for offset, event in enumerate(BLOCK_EVENTS):
            recorder.record_event(0, round_number, event,
                                  round_number * 1e-3 + offset * 1e-4,
                                  tx_count=100)
    return (time.perf_counter() - started) / (rounds * len(BLOCK_EVENTS))


def experiments_report_render() -> float:
    """``load_results`` + ``render_experiments_md`` over committed results."""
    started = time.perf_counter()
    render_experiments_md(load_results(RESULTS_DIR))
    return time.perf_counter() - started


def runtime_loopback_msg(count: int = 3_000) -> float:
    """One framed message over a real loopback TCP socket (send to receipt)."""
    env = RealtimeEnvironment()
    try:
        network = RealtimeNetwork(env, 2)
        stamps: list[float] = []
        network.endpoint(1).router = (
            lambda _message: stamps.append(time.perf_counter()))

        def burst(_arg) -> None:
            stamps.append(time.perf_counter())
            for _ in range(count):
                network.send(0, 1, "bench", "PING", {"round": 3},
                             size_bytes=256)

        env.call_later(0.0, burst)
        env.run(until=1.5)
    finally:
        env.close()
    if len(stamps) != count + 1:
        raise RuntimeError(f"loopback probe received {len(stamps) - 1} of "
                           f"{count} messages")
    return (stamps[-1] - stamps[0]) / count


#: name -> (function, unit, scale applied to the per-operation seconds).
PROBES = {
    "probe.sim.timer_us": (sim_timer, "us", 1e6),
    "probe.sim.train_delivery_us": (sim_train_delivery, "us", 1e6),
    "probe.net.broadcast_delivery_us": (net_broadcast_delivery, "us", 1e6),
    "probe.net.send_us": (net_send, "us", 1e6),
    "probe.crypto.hash_fields_us": (crypto_hash_fields, "us", 1e6),
    "probe.crypto.merkle_leaf_us": (crypto_merkle_leaf, "us", 1e6),
    "probe.crypto.sign_verify_us": (crypto_sign_verify, "us", 1e6),
    "probe.ledger.pool_tx_us": (ledger_pool_tx, "us", 1e6),
    "probe.ledger.execute_tx_us": (ledger_execute_tx, "us", 1e6),
    "probe.ledger.append_us": (ledger_append, "us", 1e6),
    "probe.metrics.record_event_us": (metrics_record_event, "us", 1e6),
    "probe.experiments.report_render_s": (experiments_report_render, "s", 1.0),
    "probe.runtime.loopback_msg_us": (runtime_loopback_msg, "us", 1e6),
}


def run_probe(name: str, rounds: int = ROUNDS, **kwargs) -> dict:
    function, unit, scale = PROBES[name]
    samples = []
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            samples.append(function(**kwargs) * scale)
        finally:
            gc.enable()
    return {"value": statistics.median(samples), "unit": unit, "n": rounds}


def main(out: str | None = None) -> int:
    block = {}
    for name in PROBES:
        block[name] = run_probe(name)
        print(f"  {name:<36} {block[name]['value']:>12.4f} {block[name]['unit']}")
    if out:
        with open(out, "w") as handle:
            json.dump({"probes": block}, handle, indent=1, sort_keys=True)
    return 0
