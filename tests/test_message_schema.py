"""The message schema: one record per message shape, declared next to the
protocol that sends it, carrying its kind, mailbox bucket, round and wire
size — and the peer-input guards that check a payload's record type."""

import random

import pytest

from repro import protocols
from repro.baselines.bftsmart import ACCEPT, WRITE, SmartAck, SmartPropose
from repro.baselines.hotstuff import VOTE, HotStuffProposal, HotStuffVote
from repro.broadcast.atomic import (
    AB_COMMIT,
    AB_PREPARE,
    AB_PREPREPARE,
    AB_REQUEST,
    AB_VIEWCHANGE,
    Order,
)
from repro.broadcast.reliable import RB_ECHO, RB_READY, RB_SEND, Relay
from repro.consensus.bbc import BBC_AUX, BBC_COORD, BBC_EST, Decided, Step
from repro.consensus.obbc import OBBC_EV_REQ, Evidence, EvidenceRequest, Vote
from repro.core.config import FireLedgerConfig
from repro.core.fireledger import (
    BODY,
    BODY_REQ,
    BODY_RESP,
    Body,
    FastCertificate,
    FireLedgerWorker,
    PanicProof,
    SignedHeader,
    Version,
)
from repro.core.wrb import (
    WRB_HEADER,
    WRB_PULL_REQ,
    WRB_PULL_RESP,
    Header,
    PullRequest,
)
from repro.crypto.keys import KeyStore
from repro.ledger.block import SIGNED_HEADER_SIZE_BYTES, build_block, make_genesis
from repro.ledger.chain import ChainVersion
from repro.ledger.transaction import Batch, Transaction
from repro.net.message import HEAD, MESSAGE_OVERHEAD_BYTES, Message, Record
from repro.net.network import Network
from repro.sim import Environment

SIGNED = SIGNED_HEADER_SIZE_BYTES
_BATCH = Batch(tuple(Transaction.create(1, 512, 0.0, seed)
                     for seed in range(3)))
_BLOCK = build_block(0, 0, make_genesis().digest, batch=_BATCH)
_SIGNED = SignedHeader((_BLOCK.header, None))
_VERSION = ChainVersion(0, (_BLOCK,))
_PROOF = PanicProof((3, _SIGNED, _SIGNED))

#: ``(a record as its sender builds it, the wire size it had as a dict)``,
#: one row per kind and size branch.
SIZES = [
    *[pytest.param(lambda kind=kind: Step.of(kind, ("bbc", 3), 1, 0), 112,
                   id=f"bbc-{kind}") for kind in (BBC_EST, BBC_COORD, BBC_AUX)],
    pytest.param(lambda: Decided.of(("bbc", 3), 1), 112, id="bbc-decided"),
    pytest.param(lambda: Decided.of(("bbc", 3), 1, {0: 1, 1: 1, 2: 1}),
                 128 + 16 * 3, id="certificate"),
    pytest.param(lambda: Vote.of(3, 0), 112, id="obbc-vote"),
    pytest.param(lambda: Vote.of(3, 1, Header.of(WRB_HEADER, 4, _SIGNED)),
                 112 + SIGNED, id="obbc-vote-piggyback"),
    pytest.param(lambda: EvidenceRequest.of(OBBC_EV_REQ, 3), 100, id="ev-req"),
    pytest.param(lambda: Evidence.of(3, None), 128, id="ev-resp"),
    pytest.param(lambda: Evidence.of(3, _SIGNED), 128 + SIGNED,
                 id="ev-resp-evidence"),
    pytest.param(lambda: Header.of(WRB_HEADER, 3, _SIGNED), SIGNED,
                 id="wrb-header"),
    pytest.param(lambda: PullRequest.of(WRB_PULL_REQ, 3), MESSAGE_OVERHEAD_BYTES,
                 id="wrb-req"),
    pytest.param(lambda: Header.of(WRB_PULL_RESP, 3, _SIGNED), 128 + SIGNED,
                 id="wrb-resp"),
    pytest.param(lambda: Body.of(BODY, _BATCH.root, _BATCH),
                 _BATCH.size_bytes + 64, id="body"),
    pytest.param(lambda: Body.of(BODY_RESP, _BATCH.root, _BATCH),
                 _BATCH.size_bytes + 64, id="body-resp"),
    pytest.param(lambda: Body.of(BODY_REQ, _BATCH.root), 128, id="body-req"),
    pytest.param(lambda: PanicProof((3, _SIGNED, _SIGNED)), 768,
                 id="panic-proof"),
    pytest.param(lambda: Version.of(3, _VERSION),
                 max(_VERSION.size_bytes, 256), id="version"),
    pytest.param(lambda: Version.of(3, ChainVersion(0, ())), 256,
                 id="version-empty"),
    pytest.param(lambda: HotStuffVote.of(VOTE, 3), 180, id="hotstuff-vote"),
    pytest.param(lambda: HotStuffProposal.of(3, 10, (), 0.0, 512),
                 10 * 512 + 256, id="hotstuff-proposal"),
    *[pytest.param(lambda kind=kind: SmartAck.of(kind, 3), 148,
                   id=f"bftsmart-{kind}") for kind in (WRITE, ACCEPT)],
    pytest.param(lambda: SmartPropose.of(3, 10, (), 0.0, 512),
                 10 * 512 + 224, id="bftsmart-propose"),
    *[pytest.param(lambda kind=kind: Relay.of(kind, 0, "t", _PROOF), 768,
                   id=f"rb-{kind}") for kind in (RB_SEND, RB_ECHO, RB_READY)],
    pytest.param(lambda: Order.of(AB_REQUEST, key=(0, 1),
                                  payload=Version.of(3, _VERSION)),
                 max(_VERSION.size_bytes, 256), id="ab-request"),
    pytest.param(lambda: Order.of(AB_PREPREPARE, 0, 1, (0, 1), _PROOF), 768,
                 id="ab-preprepare"),
    *[pytest.param(lambda kind=kind: Order.of(kind, 0, 1, (0, 1)),
                   MESSAGE_OVERHEAD_BYTES, id=f"ab-{kind}")
      for kind in (AB_PREPARE, AB_COMMIT)],
    pytest.param(lambda: Order.of(AB_VIEWCHANGE, 1), MESSAGE_OVERHEAD_BYTES,
                 id="ab-viewchange"),
]


@pytest.mark.parametrize("build, size", SIZES)
def test_each_record_states_the_wire_size_its_kind_had(build, size):
    """Every size rule reproduces the integer the kind was sent at before
    payloads were records, and a message record is filed under its own
    kind."""
    record = build()
    assert record.size_bytes == size
    if record.KINDS:
        assert record.FIELDS[:len(HEAD)] == HEAD
        assert record.kind in record.KINDS
        assert record.bucket[0] == record.kind


def _declared_records():
    """Every record type ``src/`` declares."""
    found, pending = [], [Record]
    while pending:
        for record in pending.pop().__subclasses__():
            pending.append(record)
            if record.__module__.startswith("repro."):
                found.append(record)
    return found


def test_no_kind_is_declared_by_two_records():
    kinds = [kind for record in _declared_records() for kind in record.KINDS]
    assert len(kinds) == len(set(kinds))


@pytest.mark.parametrize("protocol", ["fireledger", "hotstuff", "bftsmart"])
def test_every_bound_kind_has_a_record(protocol):
    """A kind a context binds to its inbox, or a worker to a handler, is
    declared by exactly one record."""
    declared = {kind for record in _declared_records()
                for kind in record.KINDS}
    env = Environment()
    network = Network(env, 4)
    protocols.get(protocol)(env, network, KeyStore(4),
                            FireLedgerConfig(n_nodes=4, workers=2),
                            random.Random(1))
    bound = {kind for endpoint in network.endpoints
             for _channel, kind in endpoint.handlers}
    assert bound and bound <= declared


def test_a_record_is_immutable_and_reads_its_fields_by_name():
    vote = Vote.of(3, 1)
    assert (vote.kind, vote.bucket, vote.round, vote.value) == (
        "OBBC_VOTE", ("OBBC_VOTE", 3), 3, 1)
    with pytest.raises(AttributeError):
        vote.value = 0
    with pytest.raises(AttributeError):
        vote.extra = 0
    assert repr(vote).startswith("Vote(kind='OBBC_VOTE', ")


# ------------------------------------------------------ peer-input guards
KEYS = KeyStore(4)


def _worker():
    env = Environment()
    network = Network(env, 4)
    worker = FireLedgerWorker(env, network, 0, 0,
                              FireLedgerConfig(n_nodes=4, workers=1), KEYS)
    return worker, network


def _serves_a_certificate(payload) -> bool:
    worker, network = _worker()
    worker._fast_certs[3] = FastCertificate(1, 0b111)  # noqa: SLF001
    worker._serve_fast_certificate(  # noqa: SLF001
        Message(1, worker.channel, BBC_EST, payload))
    return network.stats.messages_sent > 0


def _accepts_a_header(payload) -> bool:
    worker, _network = _worker()
    return worker._validate_signed_header(3, 0, payload)  # noqa: SLF001


def _accepts_a_proof(payload) -> bool:
    worker, _network = _worker()
    worker._on_panic_delivered(1, ("panic", 3, 1), payload)  # noqa: SLF001
    return bool(worker._pending_panics)  # noqa: SLF001


def _accepts_a_version(payload) -> bool:
    worker, _network = _worker()
    worker._on_version_delivered(1, payload)  # noqa: SLF001
    return bool(worker._version_log)  # noqa: SLF001


GUARDS = {"fast-certificate": _serves_a_certificate,
          "signed-header": _accepts_a_header,
          "panic-proof": _accepts_a_proof,
          "version": _accepts_a_version}


@pytest.mark.parametrize("payload", [
    pytest.param(lambda: {"tag": 3, "round": 3, "header": _BLOCK.header},
                 id="dict"),
    pytest.param(lambda: None, id="none"),
    pytest.param(lambda: Vote.of(3, 1), id="another-kind"),
    pytest.param(lambda: PanicProof((3, {"header": _BLOCK.header}, None)),
                 id="proof-of-dicts"),
])
@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_a_payload_of_the_wrong_type_is_ignored(guard, payload):
    """Each handler a peer's payload reaches unchecked ignores one of the
    wrong type — a dict, ``None``, another kind's record — instead of
    raising."""
    assert not GUARDS[guard](payload())


def _signed_header():
    header = build_block(3, 0, make_genesis().digest).header
    return SignedHeader((header, KEYS.key_for(0).sign(header.digest)))


@pytest.mark.parametrize("guard, payload", [
    ("fast-certificate", lambda: Step.of(BBC_EST, ("bbc", 3), 0, 1)),
    ("fast-certificate", lambda: EvidenceRequest.of(OBBC_EV_REQ, 3)),
    ("signed-header", _signed_header),
    ("panic-proof", lambda: PanicProof((3, _signed_header(), SignedHeader((
        make_genesis().header, None))))),
    ("version", lambda: Version.of(3, ChainVersion(1, ()))),
], ids=["bbc-step", "evidence-request", "signed-header", "panic-proof",
        "version"])
def test_a_payload_of_the_right_type_passes_its_guard(guard, payload):
    """The positive control of the guards above."""
    assert GUARDS[guard](payload())
