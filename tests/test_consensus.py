"""Tests of OBBC (the optimistic fast path) and the BBC fallback."""

import random

import pytest

from repro.consensus import BinaryConsensus, OptimisticBinaryConsensus
from repro.consensus.bbc import Decided
from repro.consensus.obbc import INBOX, Evidence
from repro.core.context import ProtocolContext
from repro.sim import Environment
from tests.conftest import make_network


def build_contexts(env, network, channel="obbc"):
    """One ProtocolContext per node (each binds its kinds to its inbox)."""
    return [ProtocolContext(env, network, node_id, channel, INBOX)
            for node_id in range(network.n_nodes)]


def run_obbc(env, network, votes, evidence_for=frozenset(), f=1, tag=0):
    """Run one OBBC instance at every node; returns the list of results."""
    contexts = build_contexts(env, network)
    results = [None] * network.n_nodes

    def evidence_validator(evidence):
        return evidence == "proof"

    def node_process(node_id):
        obbc = OptimisticBinaryConsensus(contexts[node_id], f, tag=tag,
                                         coordinator_base=1,
                                         evidence_validator=evidence_validator,
                                         collect_timeout=0.2)
        evidence = "proof" if node_id in evidence_for else None
        result = yield from obbc.propose(votes[node_id], evidence=evidence)
        results[node_id] = result

    for node_id in range(network.n_nodes):
        env.process(node_process(node_id))
    env.run(until=20.0)
    return results


def test_obbc_fast_path_when_unanimous():
    env = Environment()
    network = make_network(env, 4)
    results = run_obbc(env, network, votes=[1, 1, 1, 1],
                       evidence_for={0, 1, 2, 3})
    assert all(r is not None for r in results)
    assert all(r.decision == 1 for r in results)
    assert all(r.fast_path for r in results)


def test_obbc_fast_path_for_zero():
    env = Environment()
    network = make_network(env, 4)
    results = run_obbc(env, network, votes=[0, 0, 0, 0])
    assert all(r.decision == 0 for r in results)
    assert all(r.fast_path for r in results)


def test_obbc_split_votes_agree_via_fallback():
    env = Environment()
    network = make_network(env, 4)
    results = run_obbc(env, network, votes=[1, 1, 0, 0], evidence_for={0, 1})
    decisions = {r.decision for r in results if r is not None}
    assert len(decisions) == 1
    assert all(r is not None for r in results)


def test_obbc_evidence_pulls_fallback_to_one():
    # Three nodes vote 0, a single node votes 1 with valid evidence: the
    # OBBCv-Validity property still allows 1 (it has evidence) or 0, but all
    # correct nodes must agree.
    env = Environment()
    network = make_network(env, 4)
    results = run_obbc(env, network, votes=[1, 0, 0, 0], evidence_for={0})
    decisions = {r.decision for r in results if r is not None}
    assert len(decisions) == 1


def test_obbc_fast_path_skips_evidence_exchange():
    """Unanimous favoured votes decide in one step: no EV_REQ, no BBC phases."""
    env = Environment()
    network = make_network(env, 4)
    results = run_obbc(env, network, votes=[1, 1, 1, 1],
                       evidence_for={0, 1, 2, 3})
    assert all(r.fast_path for r in results)
    assert network.stats.messages_of_kind("BBC_EST") == 0
    # Every node names the n - f distinct voters it fast-decided from.
    assert all(r.voters.bit_count() == 3 and r.voters < 1 << 4
               for r in results)
    assert network.stats.messages_of_kind("OBBC_EV_REQ") == 0
    assert network.stats.messages_of_kind("OBBC_EV_RESP") == 0


def test_obbc_evidence_fallback_converges_on_favoured_value():
    """Split votes force the evidence exchange; served evidence pulls every
    estimate to the favoured value, so the BBC fallback decides 1."""
    env = Environment()
    network = make_network(env, 4)
    contexts = build_contexts(env, network)
    results = [None] * network.n_nodes

    def evidence_validator(evidence):
        return evidence == "proof"

    def node_process(node_id, value, evidence):
        obbc = OptimisticBinaryConsensus(contexts[node_id], 1, tag=0,
                                         coordinator_base=1,
                                         evidence_validator=evidence_validator,
                                         collect_timeout=0.2)
        results[node_id] = yield from obbc.propose(value, evidence=evidence)

    def serve_evidence(node_id):
        # Serve EV_REQs the way the worker does for a header it holds
        # evidence for; everything else is filed by the context's bindings.
        context = contexts[node_id]

        def serve(message):
            context.send(message.sender,
                         Evidence.of(message.payload.round, "proof"))
        return serve

    votes = [1, 1, 0, 0]
    for node_id in range(4):
        network.bind(node_id, "obbc", {"OBBC_EV_REQ": serve_evidence(node_id)})
        evidence = "proof" if votes[node_id] == 1 else None
        env.process(node_process(node_id, votes[node_id], evidence))
    env.run(until=20.0)

    assert all(r is not None for r in results)
    # Nobody can assemble a unanimous n - f quorum: everyone takes the
    # fallback, and the served evidence forces the favoured value through.
    assert all(not r.fast_path for r in results)
    assert network.stats.messages_of_kind("BBC_EST") >= 4
    assert {r.decision for r in results} == {1}
    assert network.stats.messages_of_kind("OBBC_EV_REQ") > 0
    assert network.stats.messages_of_kind("OBBC_EV_RESP") > 0


def test_obbc_fallback_without_served_evidence_still_agrees():
    """A 2-2 split rules the fast path out for everyone; with nobody serving
    EV_REQs the exchange times out and the BBC fallback still agrees."""
    env = Environment()
    network = make_network(env, 4)
    results = run_obbc(env, network, votes=[1, 1, 0, 0], evidence_for={0, 1})
    assert all(r is not None for r in results)
    assert all(not r.fast_path for r in results)
    assert len({r.decision for r in results}) == 1
    # The evidence exchange was attempted (requests went out) even though
    # no peer answered them.
    assert network.stats.messages_of_kind("OBBC_EV_REQ") > 0


def test_obbc_rejects_invalid_proposals():
    env = Environment()
    network = make_network(env, 4)
    context = ProtocolContext(env, network, 0, "x", INBOX)
    obbc = OptimisticBinaryConsensus(context, 1, tag=0, collect_timeout=1.0)
    with pytest.raises(ValueError):
        env.run_process(obbc.propose(2))
    with pytest.raises(ValueError):
        # favoured value without evidence
        env.run_process(obbc.propose(1, evidence=None))
    with pytest.raises(ValueError):
        # non-favoured value with evidence
        env.run_process(obbc.propose(0, evidence="proof"))


def test_bbc_unanimous_input_decides_that_value():
    env = Environment()
    network = make_network(env, 4)
    contexts = build_contexts(env, network, channel="bbc")
    results = [None] * 4

    def node(node_id):
        bbc = BinaryConsensus(contexts[node_id], f=1, tag=("bbc", 1),
                              coordinator_base=0)
        results[node_id] = yield from bbc.propose(1)

    for node_id in range(4):
        env.process(node(node_id))
    env.run(until=20.0)
    assert results == [1, 1, 1, 1]


def test_bbc_split_input_agrees():
    env = Environment()
    network = make_network(env, 4)
    contexts = build_contexts(env, network, channel="bbc")
    results = [None] * 4

    def node(node_id, value):
        bbc = BinaryConsensus(contexts[node_id], f=1, tag=("bbc", 2),
                              coordinator_base=2)
        results[node_id] = yield from bbc.propose(value)

    for node_id, value in enumerate([0, 1, 0, 1]):
        env.process(node(node_id, value))
    env.run(until=30.0)
    assert all(r in (0, 1) for r in results)
    assert len(set(results)) == 1


def test_bbc_certificate_terminates_late_joiner():
    """A node that missed the fast path can decide from a single certificate."""
    env = Environment()
    network = make_network(env, 4)
    context = ProtocolContext(env, network, 0, "bbc", INBOX)

    def certificate_sender(_event):
        certificate = Decided.of(("bbc", 3), 1, {0: 1, 1: 1, 2: 1})
        network.send(1, 0, "bbc", certificate.kind, certificate)

    env.timeout(0.01).add_callback(certificate_sender)

    def late_node():
        bbc = BinaryConsensus(context, f=1, tag=("bbc", 3), coordinator_base=0)
        return (yield from bbc.propose(0))

    result = env.run_process(late_node(), until=10.0)
    assert result == 1


def test_bbc_rejects_non_binary_value():
    env = Environment()
    network = make_network(env, 4)
    context = ProtocolContext(env, network, 0, "bbc", INBOX)
    bbc = BinaryConsensus(context, f=1, tag=("bbc", 4))
    with pytest.raises(ValueError):
        env.run_process(bbc.propose(5))


def test_bbc_timeouts_are_its_class_constants(monkeypatch):
    """A lone node's fallback spends exactly the class constants' waits: each
    phase collects ESTs for 4 x PHASE_TIMEOUT, waits PHASE_TIMEOUT for the
    coordinator and collects AUXes for 4 x PHASE_TIMEOUT; after MAX_PHASES
    it adopts its estimate."""
    monkeypatch.setattr(BinaryConsensus, "PHASE_TIMEOUT", 0.1)
    monkeypatch.setattr(BinaryConsensus, "MAX_PHASES", 2)
    env = Environment()
    network = make_network(env, 4)
    for crashed in (1, 2, 3):
        network.crash(crashed)
    context = ProtocolContext(env, network, 0, "bbc", INBOX)
    bbc = BinaryConsensus(context, f=1, tag=("bbc", 0), coordinator_base=1)

    def alone():
        decision = yield from bbc.propose(1)
        return decision, env.now

    decision, decided_at = env.run_process(alone(), until=10.0)
    assert decision == 1
    assert 2 * 0.9 <= decided_at < 2 * 0.9 + 0.01
