"""Differential tests: the shipped kernel vs the test-tree reference oracle.

The batched delivery train, the same-instant bucket and the block latency
sampler are pure optimisations — the tentpole claim is *observational
equivalence*: for every protocol and scenario the batched kernel must
produce the exact delivery sequence, chain contents and state roots the
pre-batching per-copy-timer kernel
(:class:`tests.reference_kernel.ReferenceEnvironment`) produces.  These tests
run full scenarios under both kernels and compare every metric row field
exactly (floats included: zero tolerance), plus the cross-node state root.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consensus.bbc import BBC_DECIDED
from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.core.context import _QuorumDrain
from repro.net.network import Network
from repro.scenarios import (
    FaultSchedule,
    WorkloadSpec,
    byzantine,
    crash,
    loss,
    slow,
)
from repro.scenarios.library import SCENARIOS
from repro.scenarios.runner import run_scenario
from repro.sim import Environment, Process, Resource, Wait
from tests import reference_certs, reference_network, reference_wait
from tests.conftest import observe_run_cluster
from tests.reference_collect import use_reference as use_reference_collect
from tests.reference_collect import use_reference_drain
from tests.reference_kernel import ReferenceEnvironment, use_reference


def _rows(monkeypatch, name: str, reference: bool, **kwargs) -> list[dict]:
    with monkeypatch.context() as patch:
        if reference:
            use_reference(patch)
        return run_scenario(SCENARIOS[name], **kwargs)


def _assert_identical(batched: list[dict], reference: list[dict]) -> None:
    assert len(batched) == len(reference)
    for fast, slow in zip(batched, reference):
        assert set(fast) == set(slow)
        for key in fast:
            assert fast[key] == slow[key], (
                f"kernel divergence on {key!r}: "
                f"batched={fast[key]!r} reference={slow[key]!r}")


@pytest.mark.parametrize("protocol", ["fireledger", "hotstuff", "bftsmart"])
def test_paper_lan_identical_across_kernels(monkeypatch, protocol):
    batched = _rows(monkeypatch, "paper-lan", False, protocol=protocol)
    reference = _rows(monkeypatch, "paper-lan", True, protocol=protocol)
    _assert_identical(batched, reference)
    assert batched[0]["state_root"]


def test_n16_quorum_drains_identical_across_kernels_and_loops(monkeypatch):
    """At n = 4 the quorum is 3 and most engagements of the quorum drain
    consume a single vote; at n = 16 (quorum 11, 4 workers on 4 cores) they
    chain several pooled timers and contend for CPU slots.  Both kernels
    must agree, and so must the old receive paths (``use_reference``): the
    per-message loop the drain replaced, the two-wake-up blocking wait and
    the process per received body."""
    batched = _rows(monkeypatch, "paper-lan", False, n_nodes=16)
    reference = _rows(monkeypatch, "paper-lan", True, n_nodes=16)
    _assert_identical(batched, reference)
    with monkeypatch.context() as patch:
        use_reference_collect(patch)
        looped = run_scenario(SCENARIOS["paper-lan"], n_nodes=16)
    _assert_identical(batched, looped)
    assert batched[0]["state_root"]


def test_multiplexed_lanes_identical_across_kernels(monkeypatch):
    batched = _rows(monkeypatch, "paper-lan", False, lanes=4)
    reference = _rows(monkeypatch, "paper-lan", True, lanes=4)
    _assert_identical(batched, reference)
    assert batched[0]["state_root"]


def test_rolling_crash_identical_across_kernels(monkeypatch):
    """Fault-controller broadcasts keep the per-copy rng interleaving."""
    batched = _rows(monkeypatch, "rolling-crash", False)
    reference = _rows(monkeypatch, "rolling-crash", True)
    _assert_identical(batched, reference)
    assert batched[0]["state_root"]


def test_byzantine_minority_identical_across_kernels(monkeypatch):
    """Panics and recoveries end blocked waits through the wake event and
    the deadline, not only through a message: the old receive paths must
    agree here too."""
    batched = _rows(monkeypatch, "byzantine-minority", False)
    reference = _rows(monkeypatch, "byzantine-minority", True)
    _assert_identical(batched, reference)
    with monkeypatch.context() as patch:
        use_reference_collect(patch)
        old_paths = run_scenario(SCENARIOS["byzantine-minority"])
    _assert_identical(batched, old_paths)
    assert batched[0]["state_root"]


@pytest.mark.parametrize("adversary", ["equivocate", "delayed-release"])
def test_adversary_strategies_identical_across_kernels(monkeypatch, adversary):
    """Adversary seams (worker substitution, call_later-based traffic
    shaping) must not observe kernel internals: same rows on both kernels."""
    batched = _rows(monkeypatch, "adversary-gauntlet", False,
                    adversary=adversary)
    reference = _rows(monkeypatch, "adversary-gauntlet", True,
                      adversary=adversary)
    _assert_identical(batched, reference)
    assert batched[0]["state_root"]


def test_reference_kernel_expands_batches_per_copy():
    """On the reference kernel a fan-out occupies one heap slot per copy."""
    fired = []
    batched = Environment()
    batched.schedule_batch([1.0, 2.0, 3.0], ["a", "b", "c"], fired.append)
    assert len(batched._queue) == 1  # noqa: SLF001 - one train slot
    reference = ReferenceEnvironment()
    reference.schedule_batch([1.0, 2.0, 3.0], ["a", "b", "c"], fired.append)
    assert len(reference._queue) == 3  # noqa: SLF001 - per-copy timers
    batched.run()
    reference.run()
    assert fired == ["a", "b", "c", "a", "b", "c"]


# ------------------------------------------------ a blocked wait is one object
def _waited_run(reference, protocol, n_nodes, shape, fault, seed):
    """Everything one run reports, the kernel's ``_sequence`` and the
    ``(now, process)`` trace of every resume — a process numbered by its
    first resume — with blocked waits built from ``tests/reference_wait.py``
    or as one ``Wait``."""
    kernels, workloads, trace, order = [], [], [], {}
    resume = Process._resume  # noqa: SLF001 - tracing resumes is the test

    def traced(process, event):
        trace.append((process.env.now, order.setdefault(process, len(order))))
        resume(process, event)

    def setup(env, network, nodes):
        kernels.append(env)
        if shape != "saturated":
            workloads.append(WorkloadSpec(
                shape=shape, n_clients=6, rate_per_client=300.0,
                think_time=0.005).build(env, nodes, seed=seed))

    phases = {"none": (), "crash": (crash(1, at=0.2),),
              "loss": (loss(0.3, start=0.1, end=0.3),),
              "equivocator": (byzantine(n_nodes - 1),)}[fault]
    config = FireLedgerConfig(n_nodes=n_nodes, workers=1, batch_size=10,
                              tx_size=512, fill_blocks=shape == "saturated")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "_resume", traced)
        if reference:
            reference_wait.use_reference(patch)
        result = run_cluster(config, protocol=protocol, duration=0.6,
                             warmup=0.1, seed=seed,
                             faults=FaultSchedule(phases), setup=setup)
    fields = {field.name: getattr(result, field.name)
              for field in dataclasses.fields(result) if field.name != "nodes"}
    return {**fields, "trace": trace,
            "clients": [(w.total_submitted, w.total_completed)
                        for w in workloads],
            "sequence": kernels[0]._sequence}  # noqa: SLF001


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       protocol=st.sampled_from(["fireledger", "bftsmart", "hotstuff"]),
       n_nodes=st.sampled_from([4, 7]),
       shape=st.sampled_from(["saturated", "open-loop", "closed-loop"]),
       fault=st.sampled_from(["none", "crash", "loss", "equivocator"]))
@example(seed=7, protocol="fireledger", n_nodes=4, shape="saturated",
         fault="equivocator")
def test_a_blocked_wait_is_the_event_per_wait_machinery_it_replaced(
        seed, protocol, n_nodes, shape, fault):
    """Differential against ``tests/reference_wait.py``: with every blocked
    wait one ``Wait`` instead of a mailbox event, an ``AnyOf``, a ``woken``
    event and a ``partial``, every result field, ``state_root``,
    ``Environment._sequence`` and the resume trace are ``==`` — fault-free,
    under a crash, a loss phase, or an equivocator whose panics end waits
    through the wake event."""
    args = (protocol, n_nodes, shape, fault, seed)
    assert _waited_run(False, *args) == _waited_run(True, *args)


def test_an_equivocator_ends_blocked_waits_through_the_wake_event(monkeypatch):
    """The differential's equivocator example does exercise the wake path:
    some blocked ``wait_message`` is decided by its context's wake event."""
    woken = []
    decide = Wait._decide  # noqa: SLF001 - which side decided is the test

    def traced(wait, arg=None):
        # Only wait_message passes a hold; only a watched event passes itself.
        if arg is not None and wait._hold is not None:  # noqa: SLF001
            woken.append(arg)
        decide(wait, arg)

    monkeypatch.setattr(Wait, "_decide", traced)
    _waited_run(False, "fireledger", 4, "saturated", "equivocator", 7)
    assert woken


# ------------------------------------------- a decided round keeps an int
def _certified_run(monkeypatch, reference: bool, name: str, **kwargs):
    """A scenario's rows and every fast-path certificate served in it, as
    ``(sender, receiver, tag, value, votes)``, with the dict certificate of
    ``tests/reference_certs.py`` or the shipped bitmask one."""
    served = []
    send = Network.send

    def traced(network, sender, receiver, channel, kind, payload, *args,
               **options):
        if kind == BBC_DECIDED and payload.certificate is not None:
            served.append((sender, receiver, payload.bucket[1], payload.value,
                           payload.certificate))
        return send(network, sender, receiver, channel, kind, payload, *args,
                    **options)

    with monkeypatch.context() as patch:
        patch.setattr(Network, "send", traced)
        if reference:
            reference_certs.use_reference(patch)
        rows = run_scenario(SCENARIOS[name], **kwargs)
    return rows, served


@pytest.mark.parametrize("name,kwargs,count", [
    pytest.param("adversary-gauntlet", {"adversary": "equivocate"}, 48,
                 id="adversary-gauntlet-equivocate"),
    pytest.param("byzantine-minority", {}, 30, id="byzantine-minority"),
])
def test_a_bitmask_certificate_serves_what_the_vote_dict_served(
        monkeypatch, name, kwargs, count):
    """Differential against ``tests/reference_certs.py``: a fast-decided
    round kept as a voter bitmask serves the same certificates — same peer,
    same round, same votes — as the vote dict did, and every row is ``==``.

    The trap is the served-once record: it must be replaced with the
    certificate when a retried round is fast-decided again (and rewound and
    evicted with it).  Kept apart from the certificate, it survives the
    replacement and swallows the re-decided round's serves: on
    ``adversary-gauntlet`` x ``equivocate`` (seed 7) 48 served became 42
    (and tps 192.9 became 150.0).  A row need not show it, so the count is
    pinned, and so is a re-serve of one round to one peer.
    """
    rows, served = _certified_run(monkeypatch, False, name, **kwargs)
    reference_rows, reference_served = _certified_run(monkeypatch, True, name,
                                                      **kwargs)
    _assert_identical(rows, reference_rows)
    assert served == reference_served
    assert len(served) == count
    if name == "adversary-gauntlet":
        serves = Counter(entry[:3] for entry in served)
        assert max(serves.values()) > 1  # a replaced certificate, re-served


# ------------------------------------------------- one way out of a node
def _networked_run(monkeypatch, reference: bool, name: str, **overrides):
    """A scenario's rows, the kernel's ``_sequence`` and the network rng's
    final state, on the shipped network or on ``tests/reference_network.py``'s
    two-path one."""
    runs = []
    with monkeypatch.context() as patch:
        observe_run_cluster(patch, lambda env, network, nodes:
                            runs.append((env, network)))
        if reference:
            reference_network.use_reference(patch)
        rows = run_scenario(SCENARIOS[name], **overrides)
    ((env, network),) = runs
    return rows, env._sequence, network.rng.getstate()  # noqa: SLF001


@pytest.mark.parametrize("name,overrides", [
    pytest.param("adversary-gauntlet", {"adversary": "selective-omission"},
                 id="adversary-gauntlet-selective-omission"),
    pytest.param("geo-5region", {"faults": FaultSchedule((
        slow(0.02, start=0.3, end=0.9, senders=(2, 3)),))},
                 id="geo-5region-slow"),
    pytest.param("byzantine-minority", {}, id="byzantine-minority"),
])
def test_a_controlled_run_is_the_two_path_network_it_replaced(
        monkeypatch, name, overrides):
    """Differential against ``tests/reference_network.py`` on the fault
    controller's path, asked once per send there and walked per copy by
    the oracle: one-way partition windows (selective omission), a ``slow``
    window over bandwidth-capped links, and a loss window that opens and
    closes mid-run (``byzantine-minority``: 0.4-0.8 s, so broadcasts switch
    between the fan-out and the per-copy branch).  Every row field,
    ``state_root``, ``Environment._sequence`` and ``rng.getstate()`` are
    ``==``."""
    rows, sequence, rng_state = _networked_run(monkeypatch, False, name,
                                               **overrides)
    reference_rows, reference_sequence, reference_rng_state = _networked_run(
        monkeypatch, True, name, **overrides)
    _assert_identical(rows, reference_rows)
    assert sequence == reference_sequence
    assert rng_state == reference_rng_state
    assert rows[0]["state_root"]


# ------------------------------------------------ a vote's path, fused
def _vote_path_run(monkeypatch, reference: bool):
    """The rows of ``paper-lan`` at the benchmark's ``lan-saturated`` shape
    (n = 4, w = 4 workers sharing each node's four cores, b = 100,
    saturated, executed; seed 7), its kernel's ``_sequence``, the ``(now,
    process)`` trace of every resume, and how many drain holds queued
    behind busy cores — on the fused vote path or on
    ``tests/reference_collect.py``'s."""
    kernels, trace, order, queued = [], [], {}, []
    resume = Process._resume  # noqa: SLF001 - tracing resumes is the test
    start = Resource._start  # noqa: SLF001 - so is seeing a queued hold

    def traced(process, event):
        trace.append((process.env.now, order.setdefault(process, len(order))))
        resume(process, event)

    def started(resource, waiter):
        queued.append(getattr(waiter[1], "__func__", None) is _QuorumDrain.step)
        start(resource, waiter)

    with monkeypatch.context() as patch:
        patch.setattr(Process, "_resume", traced)
        patch.setattr(Resource, "_start", started)
        observe_run_cluster(patch, lambda env, *_: kernels.append(env))
        if reference:
            use_reference_drain(patch)
        rows = run_scenario(SCENARIOS["paper-lan"], seed=7, batch_size=100)
    return rows, kernels[0]._sequence, trace, sum(queued)  # noqa: SLF001


def test_a_contended_vote_path_is_the_one_it_fused(monkeypatch):
    """Differential against the vote path as it was: the worker's
    ``_on_vote`` filing a vote's piggybacked header, the drain stepping
    through ``Mailbox.take`` and ``Resource.hold``, its holds ended by
    ``Resource.release`` (``tests/reference_collect.py``).  With four
    workers per node on four cores, drain holds queue behind busy cores
    (the resource's waiter queue and its ``_start`` hop); every row field,
    ``state_root``, ``Environment._sequence`` and the resume trace are
    ``==``."""
    rows, sequence, trace, queued = _vote_path_run(monkeypatch, False)
    reference_rows, reference_sequence, reference_trace, _ = _vote_path_run(
        monkeypatch, True)
    assert queued > 0
    _assert_identical(rows, reference_rows)
    assert sequence == reference_sequence
    assert trace == reference_trace
    assert rows[0]["state_root"]
