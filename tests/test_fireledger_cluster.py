"""End-to-end tests of the FireLedger protocol and the FLO orchestrator."""

import cProfile
import gc
import heapq
import importlib.util
import pstats
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import FireLedgerConfig, run_cluster
from repro.ledger.transaction import Batch, Transaction
from repro.net.latency import GeoDistributedLatency
from repro.scenarios import runner
from repro.scenarios.faultplan import FaultSchedule, crash
from repro.metrics.recorder import EVENT_TENTATIVE_DECISION
from repro.sim import Process
from tests.conftest import Item, gc_paused, observe_run_cluster

DURATION = 0.6
WARMUP = 0.1


@pytest.fixture
def fault_free_result(cluster_result):
    return cluster_result()  # the shared factory's defaults: n=4, seed 3


def test_cluster_makes_progress(fault_free_result):
    assert fault_free_result.bps > 50
    assert fault_free_result.tps > 0
    assert fault_free_result.fast_path_rounds > 0


def test_fault_free_run_uses_only_the_fast_path(fault_free_result):
    assert fault_free_result.failed_rounds == 0
    assert fault_free_result.recoveries == 0
    assert fault_free_result.fallback_rounds <= fault_free_result.fast_path_rounds * 0.02


def test_all_correct_nodes_agree_on_the_definite_prefix(fault_free_result):
    nodes = fault_free_result.nodes
    reference = nodes[0].workers[0].chain
    for node in nodes[1:]:
        chain = node.workers[0].chain
        common = min(reference.definite_height, chain.definite_height)
        assert common > 5
        for round_number in range(common + 1):
            a = reference.block_at_round(round_number)
            b = chain.block_at_round(round_number)
            assert a is not None and b is not None
            assert a.digest == b.digest


def test_chains_are_hash_linked(fault_free_result):
    chain = fault_free_result.nodes[0].workers[0].chain
    blocks = chain.blocks
    for previous, block in zip(blocks, blocks[1:]):
        assert block.previous_digest == previous.digest
        assert block.round_number == previous.round_number + 1


def test_rotating_proposers(fault_free_result):
    chain = fault_free_result.nodes[0].workers[0].chain
    proposers = [b.proposer for b in chain.definite_blocks]
    assert len(set(proposers)) == 4
    # Round robin: every f+1 = 2 consecutive blocks have different proposers.
    for a, b in zip(proposers, proposers[1:]):
        assert a != b


def test_one_proposer_signature_per_block(fault_free_result):
    nodes = fault_free_result.nodes
    signatures = fault_free_result.breakdown["signatures"]
    decided = max(len(node.workers[0].chain.blocks) for node in nodes)
    # At most a couple of extra signatures beyond one per decided block
    # (initial full-mode proposals and unused piggybacks).
    assert signatures <= decided + 4 * len(nodes)


def test_flo_delivers_definite_blocks_in_order(fault_free_result):
    node = fault_free_result.nodes[0]
    assert node.delivery_stream.deliveries > 0
    assert node.delivered_transactions > 0
    # Delivery never outruns definiteness.
    worker = node.workers[0]
    assert node.delivery_stream.deliveries <= len(worker.chain.definite_blocks)


def test_latency_and_breakdown_populated(fault_free_result):
    assert fault_free_result.latency.samples > 0
    assert fault_free_result.latency.p95 >= fault_free_result.latency.p50
    assert "C->D" in fault_free_result.breakdown
    assert fault_free_result.breakdown["C->D"] > 0


def test_deterministic_given_seed():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    first = run_cluster(config, duration=0.3, warmup=0.05, seed=11)
    second = run_cluster(config, duration=0.3, warmup=0.05, seed=11)
    assert first.tps == pytest.approx(second.tps)
    assert first.network.messages_sent == second.network.messages_sent


def test_different_seed_changes_low_level_timing():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    first = run_cluster(config, duration=0.3, warmup=0.05, seed=1)
    second = run_cluster(config, duration=0.3, warmup=0.05, seed=2)
    assert first.latency.mean != second.latency.mean


def test_multiple_workers_raise_throughput(cluster_result):
    single = cluster_result(batch_size=100, seed=5)
    quad = cluster_result(workers=4, batch_size=100, seed=5)
    assert quad.tps > single.tps * 1.5


def test_larger_batches_raise_throughput(cluster_result):
    small = cluster_result(seed=5)
    large = cluster_result(batch_size=1000, seed=5)
    assert large.tps > small.tps * 2


def test_geo_distribution_reduces_block_rate(cluster_result):
    local = cluster_result(seed=9)
    geo = cluster_result(duration=2.0, warmup=0.3, seed=9,
                         latency_model=GeoDistributedLatency())
    assert geo.bps < local.bps * 0.2
    assert geo.bps > 0


def test_crash_of_f_nodes_does_not_stop_progress(cluster_result):
    result = cluster_result(batch_size=100, duration=1.0, warmup=0.3, seed=4,
                            faults=FaultSchedule((crash(3, at=0.05),)))
    assert result.tps > 0
    assert result.bps > 10
    # Correct nodes still agree.
    live = [node for node in result.nodes if node.node_id != 3]
    heights = [node.workers[0].chain.definite_height for node in live]
    assert min(heights) > 0


def test_non_triviality_under_client_load_only():
    """With fill_blocks=False only client transactions are ordered."""
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=50, tx_size=512,
                              fill_blocks=False)
    result = run_cluster(config, duration=DURATION, warmup=0.0, seed=6)
    node = result.nodes[0]
    submitted = [node.submit_transaction(Transaction.create(1, 512))
                 for _ in range(20)]
    # Transactions submitted after the run ended stay pending; re-run a fresh
    # cluster with load injected up front instead.
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=50, tx_size=512,
                              fill_blocks=False)
    result = run_cluster(config, duration=DURATION, warmup=0.0, seed=6)
    for node in result.nodes:
        for _ in range(10):
            node.submit_transaction(Transaction.create(2, 512))
    # The pool was filled after the simulation finished, so nothing was
    # ordered — but empty blocks must still have been decided (chain liveness).
    assert result.bps > 0


def test_recorder_block_events_cover_all_rounds(fault_free_result):
    recorder = fault_free_result.nodes[0].recorder
    tentative = recorder.blocks_with_event(EVENT_TENTATIVE_DECISION, DURATION)
    assert len(tentative) > 10


@contextmanager
def _counted_resumes(monkeypatch):
    """Count ``Process._resume`` calls made inside the block (``[0]``)."""
    calls = [0]
    resume = Process._resume  # noqa: SLF001 - the wake-up is what is gated

    def counting(process, event):
        calls[0] += 1
        resume(process, event)

    with monkeypatch.context() as patch:
        patch.setattr(Process, "_resume", counting)
        yield calls


def _wakeups_per_node_round(monkeypatch, n_nodes: int) -> float:
    """``Process._resume`` calls per node per decided round, fault-free."""
    with _counted_resumes(monkeypatch) as calls:
        result = run_cluster(
            FireLedgerConfig(n_nodes=n_nodes, workers=1, batch_size=10,
                             tx_size=512),
            duration=0.4, warmup=0.1, seed=3)
    assert result.failed_rounds == 0
    # Both counters are summed over the nodes.
    return calls[0] / (result.fast_path_rounds + result.fallback_rounds)


def test_process_wakeups_per_round_do_not_grow_with_the_quorum(monkeypatch):
    """A round costs a node one wake-up per *quorum*, not one per vote.

    A deterministic work counter (it repeats exactly for a seed), so it is
    gated where wall-clock cannot be.  Wake-ups per node per decided round:

    ==========================================  =====  ======
    commit                                      n = 8  n = 32
    ==========================================  =====  ======
    per-message loop (fc822e7)                  12.22   30.74
    quorum drain (this test's commit)            8.91   11.07
    a wait is one kernel entry (91172d3)         8.38   10.86
    blocked wait wakes once, body is a hold      4.71    4.77
    ==========================================  =====  ======

    The per-message loop woke the round's process once per collected vote
    (quorum n - f: 6 -> 22 votes), so its figure is linear in n; with the
    drain what is left is the arrivals that find the mailbox empty, and
    since each of those wakes the process once (its CPU hold is armed by
    the ``Wait`` it won) and a received body is checked by a hold, not a
    process, it is flat in n.
    """
    small = _wakeups_per_node_round(monkeypatch, 8)
    assert small == _wakeups_per_node_round(monkeypatch, 8)
    large = _wakeups_per_node_round(monkeypatch, 32)
    assert large <= 16.0, f"{large:.2f} wake-ups per node-round at n = 32"
    assert large - small <= 6.0, (
        f"wake-ups per node-round grow with n: {small:.2f} at n = 8, "
        f"{large:.2f} at n = 32")


def _fig10_point_work(monkeypatch) -> tuple[tuple[int, int, int], object]:
    """Figure 10's large-n point: n = 40, w = 1, b = 1000, 0.3 sim-s.
    Returns the work counters and the result (which keeps the cluster alive)."""
    kernel = []
    with _counted_resumes(monkeypatch) as calls:
        result = run_cluster(
            FireLedgerConfig(n_nodes=40, workers=1, batch_size=1000,
                             tx_size=512),
            duration=0.3, warmup=0.1, seed=7,
            setup=lambda env, network, nodes: kernel.append(env))
    return (kernel[0]._sequence,  # noqa: SLF001 - kernel entries scheduled
            result.network.messages_sent, calls[0]), result


def _broadcast_storm_work(monkeypatch) -> tuple[tuple[int, int, int], object]:
    """400 back-to-back control broadcasts over a 40-node clique.  Returns
    the work counters and the network (mailboxes full of what was sent)."""
    from repro.net.latency import SingleDatacenterLatency
    from repro.net.network import Network
    from repro.sim import Environment

    env = Environment()
    network = Network(env, 40, latency_model=SingleDatacenterLatency())

    def storm():
        for round_number in range(400):
            network.broadcast(round_number % 40, "bench", "PING", None,
                              size_bytes=256)
            yield env.timeout(1e-4)

    with _counted_resumes(monkeypatch) as calls:
        env.process(storm())
        env.run()
    return (env._sequence,  # noqa: SLF001 - kernel entries scheduled
            network.stats.messages_sent, calls[0]), network


@pytest.mark.parametrize("work,pinned", [
    (_fig10_point_work, (83410, 49811, 5118)),
    (_broadcast_storm_work, (16000, 15600, 401)),
])
def test_simulator_work_counters_are_pinned(monkeypatch, work, pinned):
    """Host work for a fixed seed, gated where wall-clock cannot be.

    ``(kernel entries scheduled, network.messages_sent, Process._resume
    calls)`` for the kernel's two stress cases.  They repeat exactly, and a
    hot-path change that does more work per simulated second moves them, so
    the tolerance is zero; values recorded at commit 2d4b15f (quorum drain,
    PR 15).  A change that moves them on purpose updates them here and says
    why.

    The resume column was re-pinned when a wait became one kernel entry
    (n = 40 point 10 311 -> 10 095): a CPU hold wakes its process once, not
    once per grant and once per timer, and a background charge is a timer,
    not a process (108 fewer starts, 108 fewer wake-ups).  A process start
    still enters through ``_resume``.  The kernel-entries and message
    columns did not move — the proof that no entry was added or lost, only
    where the waits sit.
    """
    first, _ = work(monkeypatch)
    assert first == work(monkeypatch)[0]
    assert first == pinned


def _queue_lengths_at_push(monkeypatch) -> list[int]:
    """The kernel queue's length after each heap push of the n = 40 point."""
    lengths = []

    def heappush(queue, entry):
        heapq.heappush(queue, entry)
        lengths.append(len(queue))

    with monkeypatch.context() as patch:
        patch.setattr("repro.sim.environment.heapq", SimpleNamespace(
            heappush=heappush, heappop=heapq.heappop,
            heapreplace=heapq.heapreplace, heapify=heapq.heapify))
        _fig10_point_work(monkeypatch)
    return lengths


def test_lost_deadlines_leave_the_queue(monkeypatch):
    """A wait's deadline that loses is withdrawn, not left to fire.

    In FireLedger's optimistic case every wait — header, body, votes — is
    won by a message, so its deadline never fires; left in the heap, those
    dead timeouts were 87-90 % of it and every push and pop sifted through
    them.  High-water mark and mean queue length at push for the n = 40
    point: 1 577 and 820.6 at commit 1b8c52c, 981 and 221.8 with
    withdrawal.  The number of pushes (one per timer, deadline or delivery
    train) did not move: 37 316.  Deterministic, so the tolerance is zero.
    """
    lengths = _queue_lengths_at_push(monkeypatch)
    assert len(lengths) == 37316
    assert max(lengths) == 981
    assert sum(lengths) / len(lengths) == 8275043 / 37316  # 221.76


def _cyclic_garbage(work, monkeypatch) -> Counter:
    """Run ``work`` with the cyclic GC paused, then count by type what a
    collection finds unreachable *while the run's live state is still held*:
    what is left is what the run allocated and could not free by reference
    count."""
    with gc_paused():
        _, alive = work(monkeypatch)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return Counter(type(item).__name__ for item in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


@pytest.mark.parametrize("work", [_fig10_point_work, _broadcast_storm_work])
def test_a_gc_paused_run_leaves_no_cyclic_garbage(monkeypatch, work):
    """Everything a broadcast allocates dies at delivery, by reference count.

    The benchmark pauses the cyclic GC in every timed repeat, so garbage
    that needs it is peak RSS; with the GC on it is collections.  When each
    copy was its own ``Message`` and a train listed entries pointing back at
    it, every train was a cycle: at commit f122ed9 the n = 40 point left
    90 485 unreachable objects (42 202 ``Message``, 1 148
    ``ScheduledBatch``) and the storm 16 800 (its messages sit in mailboxes;
    400 ``ScheduledBatch`` and their 15 600 entries).  The count repeats
    exactly, so the tolerance is zero — and so is the pinned total.
    """
    first = _cyclic_garbage(work, monkeypatch)
    assert first == _cyclic_garbage(work, monkeypatch)
    assert first["Message"] == first["ScheduledBatch"] == 0
    assert sum(first.values()) == 0, first.most_common(5)


@cache
def _benchmark_workloads():
    """The repo benchmark's workload table, read (never edited) from
    ``benchmarks/perf/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "benchmarks/perf/workloads.py"
    spec = importlib.util.spec_from_file_location("_perf_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look the module up
    return module.BY_NAME


def _cut_spec(name, duration, warmup):
    """One sim benchmark spec, cut to ``duration`` sim-s."""
    return replace(_benchmark_workloads()[name].spec, duration=duration,
                   warmup=warmup)


def _benchmark_workload_work(monkeypatch, name, duration, warmup) -> tuple:
    """Work counters of one cut-down sim benchmark spec, seed 7."""
    spec = _cut_spec(name, duration, warmup)
    kernel = []
    with monkeypatch.context() as patch, \
            _counted_resumes(monkeypatch) as calls:
        results = observe_run_cluster(
            patch, lambda env, network, nodes: kernel.append(env))
        runner.run_scenario(spec, seed=7)
    stats = results[0].network
    return (kernel[0]._sequence,  # noqa: SLF001 - kernel entries scheduled
            stats.messages_sent, stats.messages_delivered,
            stats.messages_dropped, calls[0])


@pytest.mark.parametrize("name,duration,warmup,pinned", [
    pytest.param(name, *rest, id=name) for name, *rest in (
        ("lan-saturated", 0.4, 0.1, (25897, 11125, 11111, 0, 9299)),
        ("scale-n64", 0.4, 0.1, (214927, 124265, 124216, 0, 7800)),
        ("flash-crowd-lanes4", 0.3, 0.1, (34665, 9164, 9138, 0, 7495)),
        ("bftsmart-lan", 2.0, 0.5, (9068, 2804, 2801, 0, 2009)),
        ("crash-recover", 2.2, 0.2, (39375, 16765, 14976, 1787, 14969)),
    )])
def test_benchmark_workload_counters_are_pinned(monkeypatch, name, duration,
                                                warmup, pinned):
    """``(kernel entries scheduled, messages sent, delivered, dropped,
    Process._resume calls)`` for the benchmark's five simulated workloads at
    reduced length (ROADMAP item 1a): the exact form of "this change moved
    no event".  They repeat exactly, so the tolerance is zero; values
    recorded at commit 969ec3c (PR 16), before the message path was
    rewritten, and unchanged by it.  ``crash-recover`` covers one crash ->
    recover -> crash cycle and the drop path.  A change that moves them on
    purpose updates them here and says why.

    Only the resume column was re-pinned when a wait became one kernel entry
    (a contended CPU hold wakes its process once, a background charge and an
    open-loop arrival spawn no process): 25 312 -> 15 380, 29 464 -> 29 104,
    32 364 -> 12 279, 28 821 -> 25 400, and ``bftsmart-lan`` unchanged (its
    leader poll is an explicit timeout).  Kernel entries and the three
    message columns did not move: no entry was added or lost.  The resume
    column moved once more when a received body's check became a CPU hold
    (no process per body) and a blocked wait's message hold was armed from
    its condition (one wake-up per blocked wait): 15 380 -> 9 299,
    29 104 -> 7 800, 12 279 -> 7 495, 6 323 -> 5 312 and 25 400 -> 14 969,
    every other column unchanged.  ``bftsmart-lan``'s resume column moved
    once more when the leader's commit poll became ``Environment.poll``
    (an empty 0.5 ms tick re-arms a timer instead of resuming the leader):
    5 312 -> 2 009, kernel entries and messages unchanged.
    """
    first = _benchmark_workload_work(monkeypatch, name, duration, warmup)
    assert first == _benchmark_workload_work(monkeypatch, name, duration,
                                             warmup)
    assert first == pinned


def test_a_worker_that_stopped_at_its_crash_files_nothing(monkeypatch):
    """A worker's ``run`` returns at the first round boundary it reaches
    crashed, and no recovery restarts it; the network must then drop, not
    file, the votes, headers and fallback steps peers keep sending it.

    The ``crash-recover`` schedule (node 3 down over [1, 2) s), cut to 3 s.
    With the default ``MAX_PHASES`` node 3's worker is still inside round
    442's fallback at its recovery and never returns (a lagging node, not a
    stopped one); one phase lets the fallback end while the node is down.
    Filed, the 3 s run left 1 861 messages in that inbox."""
    from repro.consensus.bbc import BinaryConsensus

    with monkeypatch.context() as patch:
        patch.setattr(BinaryConsensus, "MAX_PHASES", 1)
        results = observe_run_cluster(patch, lambda *_: None)
        runner.run_scenario(_cut_spec("crash-recover", 3.0, 0.2), seed=7)
    (worker,) = results[0].nodes[3].workers
    assert worker.round == 443 and len(worker.context.inbox) == 0
    # The handlers that answer peers stay bound.
    handlers = worker.network.endpoint(3).handlers
    assert handlers[worker.channel, "BODY_REQ"] == worker._serve_body
    assert handlers[worker.channel, "BBC_EST"] == worker._serve_fast_certificate


def test_the_bftsmart_leader_proposes_on_the_first_tick_after_a_commit(
        monkeypatch):
    """The model the leader's poll encodes, on ``bftsmart-lan``: after
    broadcasting instance k at ``t_k`` the leader looks for its local commit
    at ``t_k + LEADER_POLL``, ``t_k + 2 * LEADER_POLL``, ... (each tick one
    period after the last) and starts instance k + 1 — its batch, then its
    signature — at the first tick at or after instance k's commit."""
    from repro.baselines.bftsmart import BFTSmartReplica

    period = BFTSmartReplica.LEADER_POLL
    commits, starts = {}, []
    next_batch = BFTSmartReplica._next_batch  # noqa: SLF001

    def timed_batch(replica):
        starts.append(replica.env.now)
        return next_batch(replica)

    def watch_leader(env, network, nodes):
        nodes[0].delivery_stream.subscribe(
            lambda delivery: commits.setdefault(
                delivery.sequence, (delivery.proposed_at, delivery.time)))

    with monkeypatch.context() as patch:
        patch.setattr(BFTSmartReplica, "_next_batch", timed_batch)
        observe_run_cluster(patch, watch_leader)
        runner.run_scenario(_cut_spec("bftsmart-lan", 2.0, 0.5), seed=7)
    assert len(commits) == 78 and starts[0] == 0.0
    ticks = []
    for seq, (proposed, committed) in sorted(commits.items()):
        tick = proposed + period
        while tick < committed:
            tick += period
        ticks.append(tick)
    assert starts[1:] == ticks


def test_a_received_body_spawns_no_process(monkeypatch):
    """The only processes of a saturated FireLedger run are its workers'
    round loops: a received body's root check is one CPU hold armed from a
    zero-delay timer, not a process (at commit 91172d3 every ``BODY`` and
    ``BODY_RESP`` that was not a duplicate started one: ~7 k per
    ``lan-saturated`` repeat)."""
    spec = _cut_spec("lan-saturated", 0.4, 0.1)
    started = [0]
    init = Process.__init__

    def counting(process, env, generator):
        started[0] += 1
        init(process, env, generator)

    with monkeypatch.context() as patch:
        patch.setattr(Process, "__init__", counting)
        (row,) = runner.run_scenario(spec, seed=7)
    assert row["tps"] > 0
    assert started[0] == spec.n_nodes * spec.workers == 16


def test_a_blocked_wait_wakes_its_process_once(monkeypatch):
    """A wait that finds the mailbox empty wakes its process once: the
    message's ``message_processing_cpu`` hold is armed by the ``Wait`` it
    won and the hold's end resumes the process.  Two ``Process._resume``
    calls — the start and that wake-up — where the process used to wake for
    the message and again for the end of its hold (three)."""
    from repro.core.context import ProtocolContext
    from repro.net.network import Network
    from repro.sim import Environment

    env = Environment()
    network = Network(env, 2)
    message_cpu = network.machine.message_processing_cpu
    assert message_cpu > 0
    context = ProtocolContext(env, network, 0, "c", (Item,))

    def waiter():
        message = yield from context.wait_message("A", 1, timeout=1.0)
        return message, env.now

    arrivals = []
    with _counted_resumes(monkeypatch) as calls:
        process = env.process(waiter())
        env.call_later(0.01, lambda _arg: arrivals.append(
            (network.send(1, 0, "c", "A", Item.of("A", 1)), env.now)))
        env.run()
    (sent, sent_at), = arrivals
    message, finished = process.value
    assert message is sent
    assert finished > sent_at + message_cpu
    assert calls[0] == 2


def test_a_received_transaction_costs_only_its_fields(monkeypatch):
    """A transaction plain pickle rebuilds (a realtime receiver's copy of
    one no in-process node framed) costs only its fields.  A copy has no
    ``__dict__`` (slots), and it is rebuilt through the slot setters:
    a slotted frozen dataclass left to the default would unpickle through
    ``dataclasses._dataclass_setstate`` and a ``fields()`` walk per copy
    (10.6 % of a profiled ``live-flash-crowd`` run)."""
    import dataclasses
    import pickle

    frame = pickle.dumps(Batch(tuple(
        Transaction.create(index % 4, 512, 0.0, index, *transfer)
        for index, transfer in enumerate([(), (1, 2, 0, 0), (3, 0, 5, 1)]))))
    walks = []
    fields = dataclasses.fields

    def counting(instance):
        walks.append(type(instance).__name__)
        return fields(instance)

    with monkeypatch.context() as patch:
        patch.setattr(dataclasses, "fields", counting)
        received = pickle.loads(frame)
    assert walks == []
    assert len(received.transactions) == 3
    for transaction in received.transactions:
        assert not hasattr(transaction, "__dict__")


def test_bytes_retained_per_decided_round_are_a_few_words():
    """What a decided round leaves behind, in traced bytes.

    An n = 32, w = 1 exact-mode cluster (no retention window: every round
    keeps its residue) runs 0.3 sim-s under ``tracemalloc``; the bytes it
    holds at the end, less those it held at 0.05 sim-s, are divided by the
    node-rounds decided in between (512).  When a fast-decided round kept
    its unanimous vote set as a 22-entry ``{sender: vote}`` dict and every
    block record had a ``__dict__``, that was 2 941 B per node-round (2 688
    B after the rest of this file had run); with a voter bitmask and a
    slotted record it is 1 570 B (1 559 B), CPython 3.11.  It repeats
    exactly for one interpreter and test order, so the bound is about 1.5x
    the measured value, and the old layout fails it as well as the two
    structural asserts.
    """
    import tracemalloc

    marks = []

    def decided(nodes) -> int:
        return sum(worker.chain.height
                   for node in nodes for worker in node.workers)

    def setup(env, network, nodes):
        env.call_later(0.05, lambda _=None: marks.append(
            (tracemalloc.get_traced_memory()[0], decided(nodes))))

    tracemalloc.start()
    try:
        result = run_cluster(
            FireLedgerConfig(n_nodes=32, workers=1, batch_size=1000,
                             tx_size=512),
            duration=0.3, warmup=0.1, seed=7, setup=setup)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    (early, early_rounds), = marks
    certificates = [certificate for node in result.nodes
                    for worker in node.workers
                    for certificate in worker._fast_certs.values()]  # noqa: SLF001
    assert certificates
    assert all(type(certificate.voters) is int for certificate in certificates)
    records = [record for node in result.nodes for record in node.recorder.blocks]
    assert records
    assert not any(hasattr(record, "__dict__") for record in records)
    rounds = decided(result.nodes) - early_rounds
    assert rounds == 512
    assert (held - early) / rounds < 2400


class _FirstReads:
    """Non-data descriptor over ``Batch.root`` recording which batches had
    their root read (kept alive, so no ``id`` is reused).  With the memo in
    the instance ``__dict__`` only an object's first read reaches it."""

    def __init__(self, wrapped) -> None:
        self.wrapped = wrapped
        self.batches: dict[int, Batch] = {}

    def __get__(self, batch, owner=None):
        if batch is None:
            return self
        self.batches[id(batch)] = batch
        return self.wrapped.__get__(batch, owner)


def _hashing_work(monkeypatch, name, duration, warmup) -> tuple:
    """``(merkle_root calls, distinct batches whose root was read, SHA-256
    digests computed)`` of one cut-down benchmark workload, counted by
    profile: the last is the calls of the ``hashlib.sha256`` constructor,
    whichever helper (or none) makes them."""
    spec = _cut_spec(name, duration, warmup)
    reads = _FirstReads(vars(Batch)["root"])
    profile = cProfile.Profile()
    with monkeypatch.context() as patch:
        patch.setattr(Batch, "root", reads)
        profile.enable()
        try:
            runner.run_scenario(spec, seed=7)
        finally:
            profile.disable()
    calls = Counter()
    for (path, _line, function), (_cc, ncalls, *_rest) in \
            pstats.Stats(profile).stats.items():
        if Path(path).name == "hashing.py" or path == "~":
            calls[function] += ncalls
    return (calls["merkle_root"], len(reads.batches),
            calls["<built-in method _hashlib.openssl_sha256>"])


@pytest.mark.parametrize("name,duration,warmup,pinned", [
    pytest.param(name, *rest, id=name) for name, *rest in (
        ("flash-crowd-lanes4", 0.3, 0.1, (532, 532, 29872)),
        ("lan-saturated", 0.4, 0.1, (626, 626, 3460)),
    )])
def test_a_body_is_hashed_once_per_object(monkeypatch, name, duration, warmup,
                                          pinned):
    """The Merkle tree of a block body is derived once per ``Batch`` object:
    the proposer and every receiver of one simulated process hold the same
    frozen batch, so ``merkle_root`` calls equal the distinct batches whose
    root anyone read (at commit c851f49 every read re-derived it: 2 467
    calls for 532 batches on the flash-crowd point, 3 004 for 626 on the
    saturated one).  The SHA-256 digests the run computes are pinned with
    them; like the work counters above they repeat exactly, so the tolerance
    is zero.  That column counted ``hash_fields`` + ``hash_bytes`` calls
    (16 261 and 3 460) until the execution root and the Merkle tree's inner
    nodes hashed their text directly (500 and 1 208 such calls left); the
    digests computed did not move: 29 872 and 3 460 at commit b0661fe too.
    """
    first = _hashing_work(monkeypatch, name, duration, warmup)
    assert first == _hashing_work(monkeypatch, name, duration, warmup)
    merkle_calls, batches_read, _digest_calls = first
    assert merkle_calls == batches_read > 0
    assert first == pinned


def _transaction_path_calls(name, duration, warmup) -> tuple:
    """``(arrivals, arrival-span calls, executed transactions, delivery-span
    calls)`` of one cut-down benchmark workload, seed 7.

    A span opens when the profiler sees a Python-level call of its root —
    ``OpenLoopClient._arrive`` (arrival: draws, the transaction, the pool
    insert, the next arrival armed) or ``LedgerExecutor.on_delivery``
    (delivery: execution and the root fold) — and closes when that frame
    returns; every Python-level call inside, the root's own included, counts.
    C calls do not.  The cyclic GC is paused, as in a benchmark repeat."""
    from repro.ledger.state import LedgerExecutor
    from repro.workload.clients import OpenLoopClient

    roots = {OpenLoopClient._arrive.__code__: "arrival",
             LedgerExecutor.on_delivery.__code__: "delivery"}
    counts = Counter()
    open_span = []

    def profile(frame, event, _arg):
        if event == "call":
            if open_span:
                counts[open_span[1]] += 1
            elif frame.f_code in roots:
                span = roots[frame.f_code]
                open_span[:] = [frame, span]
                counts[span] += 1
                if span == "arrival":
                    counts["arrivals"] += 1
                else:
                    counts["executed"] += len(
                        frame.f_locals["delivery"].transactions)
        elif event == "return" and open_span and frame is open_span[0]:
            open_span.clear()

    spec = _cut_spec(name, duration, warmup)
    with gc_paused():  # no collection's finalizers run inside a span
        sys.setprofile(profile)
        try:
            runner.run_scenario(spec, seed=7)
        finally:
            sys.setprofile(None)
    return (counts["arrivals"], counts["arrival"], counts["executed"],
            counts["delivery"])


def test_a_transaction_costs_a_pinned_number_of_calls():
    """Python-level calls on the two per-transaction spans of a 0.1 sim-s
    ``flash-crowd-lanes4`` cut: 11 632 arrivals (16 of them a client's first,
    which submits nothing) and 25 991 transactions executed over 553
    node-deliveries.

    An arrival is 10 calls: ``_arrive``, the one draw frame
    ``_next_write``, ``Transaction.create`` and its ``__init__``, the rate
    shape, the lane node's and the lane's ``submit_transaction``, the pool's
    ``submit`` and ``is_full``, and ``call_later``.  A delivery is
    ``on_delivery``, ``apply_delivery`` and ``LedgerState.apply_block``, plus
    one ``LatencyHistogram.extend`` per sender with an applied transfer in
    the block (1 513) and one ``LatencyHistogram`` built per sender first
    seen (64 constructor calls).  Until a block folded each sender's
    latencies at once, the delivery span took 9 331 calls: one
    ``LatencyHistogram.add`` per applied transfer (7 608).
    At commit b0661fe the same spans took 220 768 and 50 538 calls: a
    generated ``__init__`` plus ``__post_init__``, ``_pick_node`` /
    ``_below`` / ``next_transfer`` per draw, ``lane_of``, and
    ``apply_transaction`` / ``balance_of`` / one ``hash_fields`` per
    transaction or delivery.  The counts repeat exactly, so the tolerance
    is zero: a change that puts a frame back on either span fails here.
    """
    counts = _transaction_path_calls("flash-crowd-lanes4", 0.1, 0.05)
    assert counts == (11632, 116208, 25991, 3236)


def _vote_path_calls(duration, warmup) -> tuple:
    """``(vote copies delivered, receive-span calls)`` of ``scale-n64`` cut
    to ``duration`` sim-s, seed 7.

    A received vote's span opens at the network's ``complete`` of an
    ``OBBC_VOTE`` copy (the filing, its piggybacked header's included), and
    at each quorum-drain step: the kernel callback ending one drained vote's
    CPU hold (or the ``Resource.release`` ending a drain hold that queued)
    and the drain's first step.  Every Python-level call inside counts, the
    root's own included, except what runs under ``Process._resume`` — the
    collector's wake-up, which the resume pins count.  C calls do not.  The
    cyclic GC is paused, as in a benchmark repeat."""
    from repro.consensus.obbc import OBBC_VOTE
    from repro.core.context import _QuorumDrain
    from repro.net.network import BaseNetwork
    from repro.sim import Resource

    (complete,) = [code for code in BaseNetwork._make_completer.__code__.co_consts
                   if getattr(code, "co_name", None) == "complete"]
    step, release = _QuorumDrain.step.__code__, Resource.release.__code__
    resume = Process._resume.__code__  # noqa: SLF001
    counts = Counter()
    spans = []  # (frame, counting) of the open span and what it suspended

    def opens(frame, code):
        if code is step:
            return True
        if code is complete:
            if frame.f_locals["message"].kind == OBBC_VOTE:
                counts["votes"] += 1
                return True
        elif code is release:
            then = frame.f_locals["then"]
            return getattr(then, "__func__", None) is _QuorumDrain.step
        return False

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if spans and spans[-1][1]:
                if code is resume:
                    spans.append((frame, False))
                else:
                    counts["calls"] += 1
            elif opens(frame, code):
                spans.append((frame, True))
                counts["calls"] += 1
        elif event == "return" and spans and frame is spans[-1][0]:
            spans.pop()

    spec = _cut_spec("scale-n64", duration, warmup)
    with gc_paused():
        sys.setprofile(profile)
        try:
            runner.run_scenario(spec, seed=7)
        finally:
            sys.setprofile(None)
    return counts["votes"], counts["calls"]


def test_a_received_vote_costs_a_pinned_number_of_calls():
    """Python-level calls on the receive span of a 0.2 sim-s ``scale-n64``
    cut (see ``_vote_path_calls``): 57 344 vote copies delivered, 195 649
    calls.

    A delivered vote is ``complete`` and the mailbox's ``put``; one that
    the quorum drain consumes adds a ``step`` — the callback that ends its
    CPU hold, frees the core, records the sender and takes the next — and
    the ``call_later`` arming its hold: 39 026 steps, 38 184 holds.  The
    rest is 896 piggybacked headers (a ``put`` each; 898 constructors, their
    ``Message`` among them), 1 115 votes handed to a blocked wait
    (``offer``) and 842 drains that woke their collector (``succeed_now``).
    At commit 667c6fa the same span took 440 460 calls:
    ``_on_vote`` per copy, and per drained vote ``advance``, the
    ``_pending_panic`` check, ``Mailbox.take``, ``Resource.hold``,
    ``Resource.release`` and ``_held``.  The counts repeat exactly, so the
    tolerance is zero: a frame put back on the vote path fails here.
    """
    assert _vote_path_calls(0.2, 0.1) == (57344, 195649)


def _fault_questions(duration, warmup) -> tuple:
    """``(sends + broadcasts of a live sender to another node, link_fault
    asks, asks some window admitted, copies of those asks, fate calls)`` on
    ``adversary-gauntlet`` x ``selective-omission`` cut to ``duration``
    sim-s, seed 7 — counted by a profile hook, so nothing is wrapped."""
    from repro.net.network import BaseNetwork
    from repro.scenarios.faultplan import FaultSchedule
    from repro.scenarios.library import SCENARIOS

    ask = FaultSchedule.link_fault.__code__
    (fate,) = [code for code in ask.co_consts
               if getattr(code, "co_name", None) == "fate"]
    sends = {BaseNetwork.send.__code__: "send",
             BaseNetwork.broadcast.__code__: "broadcast"}
    counts = Counter()
    copies = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in sends:
            local = frame.f_locals
            network, sender = local["self"], local["sender"]
            remote = sends[code] == "broadcast" or local["receiver"] != sender
            if remote and not network.endpoints[sender].crashed:
                counts["sends"] += 1
                copies[:] = [1 if sends[code] == "send"
                             else network.n_nodes - 1]
        elif event == "call" and code is ask:
            counts["asks"] += 1
        elif event == "return" and code is ask and arg is not None:
            counts["admitted"] += 1
            counts["admitted copies"] += copies[0]
        elif event == "call" and code is fate:
            counts["fates"] += 1

    spec = replace(SCENARIOS["adversary-gauntlet"], duration=duration,
                   warmup=warmup)
    sys.setprofile(profile)
    try:
        runner.run_scenario(spec, seed=7, adversary="selective-omission")
    finally:
        sys.setprofile(None)
    return (counts["sends"], counts["asks"], counts["admitted"],
            counts["admitted copies"], counts["fates"])


def test_a_send_asks_the_fault_schedule_once():
    """The network asks a run's schedule one question per send or
    broadcast of a live sender (``FaultSchedule.link_fault``), and a copy
    meets a ``fate`` only when some open window admits its sender.  On a
    0.3 sim-s ``adversary-gauntlet`` x ``selective-omission`` cut, 423 sends
    and broadcasts ask 423 times; the two Byzantine senders' 130 admitted
    asks (75 broadcasts, 55 sends) carry 505 copies, which are the 505
    ``fate`` calls, and the copies of the other 293 meet no fate.  At commit 8987e70 the same cut asked per copy,
    twice: 1 653 ``should_drop`` and 1 570 ``extra_delay`` calls, each a
    walk over every link window (3 264 ``drops``, 3 140 ``delay``).  The
    counts repeat exactly, so the tolerance is zero."""
    counts = _fault_questions(0.3, 0.1)
    sends, asks, _admitted, admitted_copies, fates = counts
    assert asks == sends
    assert fates == admitted_copies
    assert counts == (423, 423, 130, 505, 505)
