"""The keyed mailbox against its predicate-scan oracle, and its boundedness."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ProtocolContext
from repro.core.mailbox import Mailbox, round_of
from repro.net.message import Message
from repro.scenarios import library
from repro.scenarios.runner import run_scenario
from repro.sim import Environment
from tests.reference_mailbox import ReferenceMailbox

#: The shapes ``src/`` uses: a plain instance key (OBBC ``tag``, WRB
#: ``round``), a per-phase key and the per-instance ``DECIDED`` BBC pairs it
#: with.  BBC tags are ``("bbc", round)`` pairs, the others bare rounds.
KEY_FIELDS = {"VOTE": "tag", "HEADER": "round",
              "EST": ("tag", "phase"), "DECIDED": "tag"}

ROUNDS = st.integers(min_value=0, max_value=3)
SENDERS = st.integers(min_value=0, max_value=2)


@st.composite
def bucket_keys(draw):
    """``(kind, key)`` of one bucket."""
    kind = draw(st.sampled_from(sorted(KEY_FIELDS)))
    if kind == "EST":
        return kind, (("bbc", draw(ROUNDS)), draw(st.integers(0, 1)))
    if kind == "DECIDED":
        return kind, ("bbc", draw(ROUNDS))
    return kind, draw(ROUNDS)


def message_for(bucket_key, sender):
    kind, key = bucket_key
    if kind == "EST":
        payload = {"tag": key[0], "phase": key[1]}
    elif kind == "HEADER":
        payload = {"round": key}
    else:
        payload = {"tag": key}
    return Message(sender=sender, channel="c", kind=kind,
                   payload=payload)


@st.composite
def wait_specs(draw):
    """``(keys, sender)``: one bucket, BBC's step-or-DECIDED pair, or a
    sender-filtered bucket."""
    first = draw(bucket_keys())
    if first[0] == "EST" and draw(st.booleans()):
        return (first, ("DECIDED", first[1][0])), None
    return (first,), draw(st.none() | SENDERS)


OPERATIONS = st.one_of(
    # Through the kind's bound putter (the router's entry point) or ``put``.
    st.tuples(st.just("put"), bucket_keys(), SENDERS, st.booleans()),
    st.tuples(st.just("take"), wait_specs()),
    # A blocked wait: take, else leave a hand-off in the waiter slot.
    st.tuples(st.just("wait"), wait_specs()),
    st.tuples(st.just("consume")),
    # A timed-out wait is withdrawn whether or not a message raced it.
    st.tuples(st.just("cancel")),
    # Any order: FireLedger's recovery moves the watermark backwards.
    st.tuples(st.just("discard_below"), st.integers(min_value=0, max_value=4)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(OPERATIONS, max_size=60))
def test_mailbox_hands_out_what_the_predicate_scan_did(operations):
    """The hand-off API (``take``, then ``expect``; ``withdraw`` re-filing a
    message handed to a wait that had already timed out) against the
    predicate scan's getter events."""
    env = Environment()
    mailbox = Mailbox(KEY_FIELDS)
    putters = {kind: mailbox.putter(kind) for kind in KEY_FIELDS}
    oracle = ReferenceMailbox(env, KEY_FIELDS)
    waiting = None  # (what was handed off, oracle event) of the blocked wait
    for operation in operations:
        name = operation[0]
        if name == "put":
            _, bucket_key, sender, bound = operation
            message = message_for(bucket_key, sender)
            (putters[message.kind] if bound else mailbox.put)(message)
            oracle.put(message)
        elif name == "take":
            keys, sender = operation[1]
            assert mailbox.take(keys, sender) is oracle.take(keys, sender)
        elif name == "wait" and waiting is None:
            keys, sender = operation[1]
            handed = []
            message = mailbox.take(keys, sender)
            if message is None:
                mailbox.expect(keys, sender, handed.append)
            else:
                handed.append(message)
            waiting = (handed, oracle.wait(keys, sender))
        elif name == "discard_below":
            mailbox.discard_below(operation[1])
            oracle.discard_below(operation[1])
        elif waiting is not None:
            ours, theirs = waiting
            assert bool(ours) == theirs.triggered
            if name == "cancel":
                mailbox.withdraw(ours[0] if ours else None)
                oracle.cancel(theirs)
                waiting = None
            elif name == "consume" and ours:
                assert ours == [theirs.value]
                waiting = None
        assert len(mailbox) == len(oracle)


def test_round_of_orders_the_tag_shapes_in_use():
    assert round_of(7) == 7
    assert round_of(("bbc", 7)) == 7
    assert round_of("r1") is None
    assert round_of(("bbc", "seven")) is None


@pytest.mark.parametrize("protocol", ["fireledger", "hotstuff", "bftsmart"])
def test_mailboxes_stay_bounded_over_a_long_run(protocol, monkeypatch):
    """The f stragglers of every quorum step must not pile up: after 16
    simulated seconds every node's mailbox holds at most 4 n messages (the
    predicate-scan inbox held ~1250 under BFT-SMaRt)."""
    contexts = []

    class RecordingContext(ProtocolContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr("repro.core.fireledger.ProtocolContext", RecordingContext)
    monkeypatch.setattr("repro.baselines.replica.ProtocolContext", RecordingContext)
    spec = dataclasses.replace(library.get("paper-lan"), protocol=protocol,
                               workers=1, duration=16.0, warmup=1.0)
    (row,) = run_scenario(spec)
    assert row["tps"] > 0
    assert len(contexts) == spec.n_nodes
    assert max(len(context.inbox) for context in contexts) <= 4 * spec.n_nodes
