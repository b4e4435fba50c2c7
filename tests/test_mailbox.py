"""The record-keyed mailbox against the two inboxes it replaced, and its
boundedness."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bftsmart import WRITE, SmartAck
from repro.baselines.hotstuff import VOTE, HotStuffVote
from repro.consensus.bbc import BBC_EST, Decided, Step
from repro.consensus.obbc import Vote
from repro.core.context import ProtocolContext
from repro.core.mailbox import Mailbox
from repro.core.wrb import WRB_HEADER, Header
from repro.net.message import Message
from repro.scenarios import library
from repro.scenarios.runner import run_scenario
from repro.sim import Environment
from tests.reference_mailbox import KEY_FIELDS, KeyedMailbox, ReferenceMailbox

#: The shapes ``src/`` files, by kind: ``(the record a sender builds, the
#: dict it sent before records)`` for a drawn ``(round, phase)``.  A plain
#: round (OBBC, WRB, the baselines), a per-phase BBC step and the
#: per-instance ``DECIDED`` BBC pairs it with; BBC tags are ``("bbc",
#: round)`` pairs.
SHAPES = {
    "OBBC_VOTE": (lambda r, p: Vote.of(r, 1),
                  lambda r, p: {"tag": r, "value": 1, "piggyback": None}),
    "HEADER": (lambda r, p: Header.of(WRB_HEADER, r, None),
               lambda r, p: {"round": r, "payload": None}),
    "BBC_EST": (lambda r, p: Step.of(BBC_EST, ("bbc", r), p, 0),
                lambda r, p: {"tag": ("bbc", r), "phase": p, "value": 0}),
    "BBC_DECIDED": (lambda r, p: Decided.of(("bbc", r), 1),
                    lambda r, p: {"tag": ("bbc", r), "value": 1}),
    "HS_VOTE": (lambda r, p: HotStuffVote.of(VOTE, r),
                lambda r, p: {"view": r}),
    "SMART_WRITE": (lambda r, p: SmartAck.of(WRITE, r),
                    lambda r, p: {"seq": r}),
}

ROUNDS = st.integers(min_value=0, max_value=3)
SENDERS = st.integers(min_value=0, max_value=2)
INSTANCES = st.tuples(st.sampled_from(sorted(SHAPES)), ROUNDS,
                      st.integers(0, 1))


def bucket_key(kind, round_number, phase):
    """``(kind, instance)`` of one bucket, as a waiting protocol names it."""
    if kind == "BBC_EST":
        return kind, (("bbc", round_number), phase)
    if kind == "BBC_DECIDED":
        return kind, ("bbc", round_number)
    return kind, round_number


@st.composite
def wait_specs(draw):
    """``(keys, sender)``: one bucket, BBC's step-or-DECIDED pair, or a
    sender-filtered bucket."""
    kind, round_number, phase = draw(INSTANCES)
    first = bucket_key(kind, round_number, phase)
    if kind == "BBC_EST" and draw(st.booleans()):
        return (first, ("BBC_DECIDED", ("bbc", round_number))), None
    return (first,), draw(st.none() | SENDERS)


OPERATIONS = st.one_of(
    # The keyed mailbox filed through the kind's bound putter or ``put``.
    st.tuples(st.just("put"), INSTANCES, SENDERS, st.booleans()),
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
    message handed to a wait that had already timed out) on record payloads,
    against the ``KEY_FIELDS`` mailbox and the predicate scan's getter
    events on the dict payloads the same messages were: the same messages
    handed out in the same order, the same buckets filed in the same order
    and indexed under the same rounds, the same buckets dropped by
    ``discard_below``."""
    env = Environment()
    mailbox = Mailbox()
    keyed = KeyedMailbox(KEY_FIELDS)
    putters = {kind: keyed.putter(kind) for kind in SHAPES}
    oracle = ReferenceMailbox(env, KEY_FIELDS)
    twins = {}  # id(record message) -> the dict-payload message it was

    def twin(message):
        return None if message is None else twins[id(message)]

    sent = []  # keeps every message alive, so no id is reused
    waiting = None  # (handed, handed by keyed, oracle event) of the wait
    for operation in operations:
        name = operation[0]
        if name == "put":
            _, (kind, round_number, phase), sender, bound = operation
            record, legacy = SHAPES[kind]
            message = Message(sender, "c", kind, record(round_number, phase))
            old = Message(sender, "c", kind, legacy(round_number, phase))
            twins[id(message)] = old
            sent.append(message)
            mailbox.put(message)
            (putters[kind] if bound else keyed.put)(old)
            oracle.put(old)
        elif name == "take":
            keys, sender = operation[1]
            assert (twin(mailbox.take(keys, sender)) is keyed.take(keys, sender)
                    is oracle.take(keys, sender))
        elif name == "wait" and waiting is None:
            keys, sender = operation[1]
            handed = ([], [])
            for inbox, hand in zip((mailbox, keyed), handed):
                message = inbox.take(keys, sender)
                if message is None:
                    inbox.expect(keys, sender, hand.append)
                else:
                    hand.append(message)
            waiting = (*handed, oracle.wait(keys, sender))
        elif name == "discard_below":
            for inbox in (mailbox, keyed, oracle):
                inbox.discard_below(operation[1])
        elif waiting is not None:
            ours, keyeds, theirs = waiting
            assert list(map(twin, ours)) == keyeds
            assert bool(ours) == theirs.triggered
            if name == "cancel":
                mailbox.withdraw(ours[0] if ours else None)
                keyed.withdraw(keyeds[0] if keyeds else None)
                oracle.cancel(theirs)
                waiting = None
            elif name == "consume" and ours:
                assert keyeds == [theirs.value]
                waiting = None
        assert len(mailbox) == len(keyed) == len(oracle)
        assert [(key, [(arrival, twin(message)) for arrival, message in bucket])
                for key, bucket in mailbox._buckets.items()] == [
            (key, list(bucket)) for key, bucket in keyed._buckets.items()]
        assert mailbox._rounds == keyed._rounds


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


def test_a_vote_files_the_header_riding_on_it_first_and_once():
    """A vote is bound straight to the mailbox, which files the next
    proposer's header riding on it first — a ``HEADER`` message of its own,
    from the vote's sender on its channel, sent when the vote was — then the
    vote.  A vote handed to an already decided wait and re-filed by
    ``withdraw`` does not file its header a second time."""
    header = Header.of(WRB_HEADER, 6, "signed header")
    vote = Message(2, "fl/0", "OBBC_VOTE", Vote.of(5, 1, header), sent_at=0.25)
    keys = (("OBBC_VOTE", 5), (WRB_HEADER, 6))
    mailbox = Mailbox()
    mailbox.put(vote)
    filed = mailbox.take(keys)
    assert (filed.sender, filed.channel, filed.kind, filed.payload,
            filed.sent_at) == (2, "fl/0", WRB_HEADER, header, 0.25)
    assert mailbox.take(keys) is vote and len(mailbox) == 0

    offered = []
    mailbox.expect(keys[:1], None, offered.append)
    mailbox.put(vote)
    assert offered == [vote] and len(mailbox) == 1  # the header
    mailbox.withdraw(vote)
    assert [mailbox.take(keys).kind for _ in range(2)] == [WRB_HEADER,
                                                           "OBBC_VOTE"]
    assert len(mailbox) == 0
