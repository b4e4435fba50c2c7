"""Tests of Byzantine fault injection, the recovery procedure and the FD."""

from dataclasses import replace

import pytest

from repro import FireLedgerConfig, run_cluster
from repro.adversary import EquivocatingWorker, build as build_adversary
from repro.consensus.obbc import OBBC_VOTE, Vote
from repro.core.failure_detector import BenignFailureDetector
from repro.core.fireledger import FireLedgerWorker
from repro.crypto.keys import KeyStore
from repro.ledger import (
    Batch,
    ChainVersion,
    ValidationError,
    build_block,
    make_genesis,
    validate_chain,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.scenarios.faultplan import FaultSchedule, byzantine


@pytest.fixture(scope="module")
def byzantine_result():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    return run_cluster(config, duration=1.5, warmup=0.2, seed=13,
                       faults=FaultSchedule((byzantine(3),)))


def test_equivocation_triggers_recoveries(byzantine_result):
    assert byzantine_result.recoveries > 0
    assert byzantine_result.recoveries_per_second > 0


def test_correct_nodes_agree_despite_equivocation(byzantine_result):
    correct = [node for node in byzantine_result.nodes if node.node_id != 3]
    chains = [node.workers[0].chain for node in correct]
    common = min(chain.definite_height for chain in chains)
    assert common > 0
    reference = chains[0]
    for chain in chains[1:]:
        for round_number in range(common + 1):
            assert (chain.block_at_round(round_number).digest
                    == reference.block_at_round(round_number).digest)


def test_progress_continues_despite_equivocation():
    """Figure 12 shape: with an equivocator the cluster still delivers
    thousands of transactions per second (measured at n=10 where the
    Byzantine node proposes 10% of the rounds, as in the paper's setup)."""
    config = FireLedgerConfig(n_nodes=10, workers=1, batch_size=100, tx_size=512)
    result = run_cluster(config, duration=1.0, warmup=0.2, seed=5,
                         faults=FaultSchedule((byzantine(9),)))
    assert result.tps > 1000
    assert result.recoveries > 0


def test_byzantine_worker_splits_cluster_into_two_groups():
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    result = run_cluster(config, duration=0.4, warmup=0.1, seed=3,
                         faults=FaultSchedule((byzantine(0),)))
    byzantine_node = result.nodes[0]
    worker = byzantine_node.workers[0]
    assert isinstance(worker, EquivocatingWorker)
    # A bisection: each half of the cluster gets one of the two headers.
    assert len(worker.group_a) == 2 and worker.group_a <= set(range(4))
    assert worker.equivocations > 0


def test_adversary_strategy_only_affects_listed_nodes():
    strategy = build_adversary("equivocate", nodes=frozenset({2}))
    config = FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)
    result = run_cluster(config, duration=0.3, warmup=0.1, seed=3,
                         faults=FaultSchedule((byzantine(2),)),
                         adversary=strategy)
    for node in result.nodes:
        is_byz = isinstance(node.workers[0], EquivocatingWorker)
        assert is_byz == (node.node_id == 2)
    assert result.breakdown["adversary_equivocations"] > 0


def test_rescinded_blocks_are_replaced_not_duplicated(byzantine_result):
    for node in byzantine_result.nodes:
        if node.node_id == 3:
            continue
        chain = node.workers[0].chain
        rounds = [b.round_number for b in chain.blocks]
        assert rounds == sorted(rounds)
        assert len(rounds) == len(set(rounds))


# --------------------------------------------------------- failure detector
def test_failure_detector_suspects_after_threshold():
    detector = BenignFailureDetector(f=1)
    for _ in range(BenignFailureDetector.SUSPECT_AFTER - 1):
        detector.record_timeout(3)
    assert not detector.is_suspected(3)
    detector.record_timeout(3)
    assert detector.is_suspected(3)


def test_failure_detector_never_suspects_more_than_f(monkeypatch):
    monkeypatch.setattr(BenignFailureDetector, "SUSPECT_AFTER", 1)
    detector = BenignFailureDetector(f=2)
    for node in (1, 2, 3, 4):
        detector.record_timeout(node)
    assert len(detector._suspected) <= 2


def test_failure_detector_clears_on_delivery_and_invalidation(monkeypatch):
    monkeypatch.setattr(BenignFailureDetector, "SUSPECT_AFTER", 1)
    detector = BenignFailureDetector(f=1)
    detector.record_timeout(2)
    assert detector.is_suspected(2)
    detector.record_delivery(2)
    assert not detector.is_suspected(2)
    detector.record_timeout(1)
    assert detector.is_suspected(1)
    detector.invalidate()
    assert not detector._suspected
    detector.record_timeout(1)
    assert detector.is_suspected(1)  # the streak restarted from zero


def test_failure_detector_disabled(monkeypatch):
    monkeypatch.setattr(BenignFailureDetector, "SUSPECT_AFTER", 1)
    detector = BenignFailureDetector(f=1, enabled=False)
    detector.record_timeout(2)
    detector.record_timeout(2)
    assert not detector.is_suspected(2)


# ------------------------------------------------ recovery-version validity
def _signed(keystore, round_number, proposer, previous_digest, signer=None):
    block = build_block(round_number, proposer, previous_digest,
                        batch=Batch(filler_count=3, filler_tx_size=512,
                                    filler_nonce=round_number + 1))
    signer = proposer if signer is None else signer
    return replace(block, signature=keystore.key_for(signer).sign(block.digest))


def test_recovery_version_validity_is_validate_chain(env):
    """The worker's ``valid`` (Algorithm 3, line 11) is
    ``ledger/validation.py``'s: a version with a broken hash link, a wrong
    round or a forged signature fails ``validate_chain`` and is rejected by
    the worker for that reason; unsigned blocks, a negative proposer and a
    repeated proposer inside f + 1 rounds are rejected on top of it."""
    keystore = KeyStore(4)
    config = FireLedgerConfig(n_nodes=4, workers=1)
    worker = FireLedgerWorker(env, Network(env, 4), 0, 0, config, keystore)
    genesis = make_genesis()
    first = _signed(keystore, 0, 0, genesis.digest)
    good = _signed(keystore, 1, 1, first.digest)
    assert worker._version_valid(ChainVersion(1, (first, good)))
    assert worker._version_valid(ChainVersion(1, ()))

    broken = {
        "link": _signed(keystore, 1, 1, genesis.digest),
        "round": _signed(keystore, 2, 1, first.digest),
        "signature": _signed(keystore, 1, 1, first.digest, signer=2),
    }
    for reason, block in broken.items():
        with pytest.raises(ValidationError, match={
                "link": "previous digest", "round": "does not extend",
                "signature": "does not verify"}[reason]):
            validate_chain((first, block), keystore)
        assert not worker._version_valid(ChainVersion(1, (first, block)))

    unsigned = build_block(1, 1, first.digest)
    assert not worker._version_valid(ChainVersion(1, (first, unsigned)))
    assert not worker._version_valid(ChainVersion(1, (genesis, first)))
    # validate_chain skips the signature of a negative proposer (its genesis
    # excuse): a block claiming one is no decided block, whoever signed it.
    no_proposer = _signed(keystore, 1, -1, first.digest, signer=3)
    validate_chain((first, no_proposer), keystore)
    assert not worker._version_valid(ChainVersion(1, (first, no_proposer)))
    repeated = _signed(keystore, 1, 0, first.digest)      # f + 1 = 2 window
    assert not worker._version_valid(ChainVersion(1, (first, repeated)))


def test_a_panic_after_a_recovery_stops_the_quorum_drain(env):
    """The worker's pending-panic list is the one object every wait of its
    context reads, so a recovery filters it in place.  Rebound to a new
    list there, it left the context reading the old one: a panic pending
    after a completed recovery went unseen, and the quorum drain consumed
    every buffered vote instead of stopping at its next step."""
    network = Network(env, 4)
    worker = FireLedgerWorker(env, network, 0, 0,
                              FireLedgerConfig(n_nodes=4, workers=1),
                              KeyStore(4))
    # A recovery that completes at once: n - f valid (empty) versions.
    worker._version_log.extend((seq, origin, ChainVersion(0, ()))
                               for seq, origin in enumerate((1, 2, 3)))
    worker._pending_panics.append((0, "proof"))
    recovery = env.process(worker._recover())
    env.run(until=0.001)
    assert recovery.triggered and worker._recovered_through == 0
    assert not worker._pending_panics

    round_number = worker.round
    for sender in (1, 2, 3):
        worker.context.inbox.put(Message(sender, worker.channel, OBBC_VOTE,
                                         Vote.of(round_number, 1)))
    collected = {}
    hold = network.machine.message_processing_cpu
    # Mid-way through the first vote's CPU hold, a recovery wave is joined.
    env.call_later(hold / 2, lambda _arg: worker._pending_panics.append(
        (round_number + 5, {"joined": 1})))
    drain = env.process(worker.context.drain_messages(OBBC_VOTE, round_number,
                                                      collected, 3))
    env.run(until=env.now + 10 * hold)
    assert drain.triggered and list(collected) == [1]
    assert len(worker.context.inbox) == 2
