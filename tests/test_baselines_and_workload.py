"""Tests of the HotStuff / BFT-SMaRt baselines and the client workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bftsmart import (
    ACCEPT,
    PROPOSE,
    WRITE,
    BFTSmartReplica,
    SmartAck,
    SmartPropose,
)
from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.core.flo import FLONode
from repro.crypto.cost_model import C5_4XLARGE, CryptoCostModel
from repro.crypto.keys import KeyStore
from repro.net.latency import SingleDatacenterLatency
from repro.net.network import Network
from repro.scenarios import FaultSchedule, WorkloadSpec, crash, loss
from repro.sim import Environment
from repro.workload import ClientWorkload
from tests import reference_poll
import random

DURATION = 1.0


def _baseline(protocol, n_nodes, batch_size, tx_size,
              duration=DURATION, seed=0):
    """Run a baseline on the paper's c5.4xlarge machine via run_cluster."""
    config = FireLedgerConfig(n_nodes=n_nodes, batch_size=batch_size,
                              tx_size=tx_size, machine=C5_4XLARGE)
    return run_cluster(config, protocol=protocol, duration=duration,
                       warmup=min(0.2, duration / 2), seed=seed)


@pytest.fixture(scope="module")
def hotstuff_result():
    return _baseline("hotstuff", 4, batch_size=100, tx_size=512, seed=2)


@pytest.fixture(scope="module")
def bftsmart_result():
    return _baseline("bftsmart", 4, batch_size=100, tx_size=512, seed=2)


def test_hotstuff_commits_blocks(hotstuff_result):
    assert hotstuff_result.blocks_committed > 10
    assert hotstuff_result.tps > 0
    assert hotstuff_result.latency.mean > 0


def test_hotstuff_latency_spans_three_chain(hotstuff_result):
    # Three-chain finality: commit latency is at least ~3 view durations.
    view_duration = DURATION / max(hotstuff_result.blocks_committed, 1)
    assert hotstuff_result.latency.mean > 2 * view_duration


def test_bftsmart_commits_blocks(bftsmart_result):
    assert bftsmart_result.blocks_committed > 10
    assert bftsmart_result.tps > 0


@pytest.mark.parametrize("write_senders, accepts", [((2, 2), 0), ((2, 3), 1)])
def test_bftsmart_write_quorum_counts_distinct_senders(write_senders, accepts):
    """With its own WRITE, a replica needs two *other* writers for 2f+1: one
    peer sending twice must not complete the quorum (no ACCEPT goes out)."""
    env = Environment()
    network = Network(env, 4, latency_model=SingleDatacenterLatency(),
                      rng=random.Random(0))
    replica = BFTSmartReplica(env, network, 1, f=1, batch_size=10, tx_size=512,
                              cost=CryptoCostModel(C5_4XLARGE))
    env.process(replica.run_replica())
    network.send(0, 1, replica.CHANNEL, PROPOSE,
                 SmartPropose.of(0, 10, (), 0.0, 512))
    for sender in write_senders:
        network.send(sender, 1, replica.CHANNEL, WRITE, SmartAck.of(WRITE, 0))
    env.run(until=0.4)
    assert network.stats.messages_of_kind(ACCEPT) == accepts * 4


def test_baseline_throughput_ordering_matches_paper():
    """Figure 16/17 shape: at n=10 HotStuff is at least on par with BFT-SMaRt
    (the quadratic write/accept exchanges start to hurt BFT-SMaRt)."""
    hotstuff = _baseline("hotstuff", 10, batch_size=100, tx_size=512, seed=2)
    bftsmart = _baseline("bftsmart", 10, batch_size=100, tx_size=512, seed=2)
    assert hotstuff.tps >= bftsmart.tps * 0.85


def test_baselines_scale_down_with_cluster_size():
    small = _baseline("hotstuff", 4, 100, 512, seed=3)
    large = _baseline("hotstuff", 16, 100, 512, seed=3)
    assert large.bps <= small.bps


def test_baselines_require_minimum_cluster():
    with pytest.raises(ValueError):
        _baseline("hotstuff", 3, 10, 512)
    with pytest.raises(ValueError):
        _baseline("bftsmart", 2, 10, 512)


def test_baseline_result_rates():
    result = _baseline("bftsmart", 4, batch_size=50, tx_size=512, seed=4)
    assert result.tps == pytest.approx(result.bps * 50, rel=0.01)


# ----------------------------------------------------------------- workload
def test_open_loop_clients_feed_the_cluster():
    env = Environment()
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=20, tx_size=512,
                              fill_blocks=False)
    network = Network(env, 4, latency_model=SingleDatacenterLatency(),
                      rng=random.Random(0))
    keystore = KeyStore(4)
    nodes = [FLONode(env, network, i, config, keystore, rng=random.Random(i))
             for i in range(4)]
    for node in nodes:
        node.start()
    workload = ClientWorkload(env, nodes, n_clients=8, rate_per_client=200,
                              tx_size=512, seed=1)
    workload.start()
    env.run(until=1.0)

    assert workload.total_submitted > 50
    delivered = sum(node.delivered_transactions for node in nodes)
    assert delivered > 0
    # Only client transactions exist (no filler), so delivery cannot exceed
    # submissions times the number of nodes that count them.
    assert delivered <= workload.total_submitted * 4


def test_client_rate_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        ClientWorkload(env, [], n_clients=1, rate_per_client=0)


# ------------------------------------------------- a poll is not a wake-up
def _polled_run(reference, protocol, n_nodes, batch_size,
                fill_blocks, shape, phase, seed):
    """Everything one run reports, its client counters and the kernel's
    ``_sequence``, on the poll or on the timeout loops it replaced."""
    kernels, workloads = [], []

    def setup(env, network, nodes):
        kernels.append(env)
        if shape != "saturated":
            workloads.append(WorkloadSpec(
                shape=shape, n_clients=6, rate_per_client=300.0,
                think_time=0.005).build(env, nodes, seed=seed))

    config = FireLedgerConfig(n_nodes=n_nodes, workers=1,
                              batch_size=batch_size, tx_size=512,
                              fill_blocks=fill_blocks,
                              execute_transactions=True)
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            reference_poll.use_reference(patch)
        result = run_cluster(config, protocol=protocol, duration=0.6,
                             warmup=0.1, seed=seed,
                             faults=FaultSchedule(phase), setup=setup)
    clients = [(w.total_submitted, w.total_completed) for w in workloads]
    return {"throughput": result.throughput, "latency": result.latency,
            "per_node_tps": result.per_node_tps,
            "per_node_bps": result.per_node_bps,
            "breakdown": result.breakdown, "network": result.network,
            "state_root": result.state_root,
            "state_deliveries": result.state_deliveries,
            "clients": clients,
            "sequence": kernels[0]._sequence}  # noqa: SLF001


_PHASES = st.one_of(
    st.just(()),
    st.builds(lambda node, at: (crash(node, at=at / 100),),
              st.integers(0, 3), st.integers(5, 50)),
    st.builds(lambda rate, start, span: (
        loss(rate / 10, start=start / 100, end=(start + span) / 100),),
        st.integers(1, 5), st.integers(0, 40), st.integers(5, 30)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       protocol=st.sampled_from(["bftsmart", "bftsmart", "hotstuff",
                                 "fireledger"]),
       n_nodes=st.sampled_from([4, 7]),
       batch_size=st.sampled_from([1, 10, 100]),
       fill_blocks=st.booleans(),
       shape=st.sampled_from(["saturated", "open-loop", "closed-loop"]),
       phase=_PHASES)
def test_a_poll_is_the_timeout_loop_it_replaced(seed, protocol, n_nodes,
                                                batch_size, fill_blocks, shape,
                                                phase):
    """Differential against ``tests/reference_poll.py``: with the BFT-SMaRt
    leader and the closed-loop client waiting through ``Environment.poll``
    instead of waking every tick, every number a run reports — rows,
    ``state_root``, client counters — and the kernel's ``_sequence`` are
    ``==``, fault-free or under one crash or loss phase."""
    args = (protocol, n_nodes, batch_size, fill_blocks, shape, phase, seed)
    assert _polled_run(False, *args) == _polled_run(True, *args)
