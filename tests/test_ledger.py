"""Tests of transactions, batches, blocks, the chain and the tx pool."""

import dataclasses
import pickle
import random

import pytest

from repro.crypto.keys import KeyStore
from repro.ledger import (
    Batch,
    Blockchain,
    ChainVersion,
    Transaction,
    TxPool,
    ValidationError,
    build_block,
    make_genesis,
    validate_chain,
)
from repro.ledger.validation import distinct_proposers_window


def make_chain_blocks(count, keystore=None, proposers=None, batch_size=3):
    """Helper: a valid chain of ``count`` signed blocks on top of genesis."""
    keystore = keystore or KeyStore(4)
    chain = [make_genesis()]
    blocks = []
    for round_number in range(count):
        proposer = proposers[round_number] if proposers else round_number % 4
        batch = Batch(filler_count=batch_size, filler_tx_size=512,
                      filler_nonce=round_number + 1)
        block = build_block(round_number, proposer, chain[-1].digest, batch=batch)
        block = dataclasses.replace(
            block, signature=keystore.key_for(proposer).sign(block.digest))
        chain.append(block)
        blocks.append(block)
    return blocks, keystore


def test_transaction_requires_positive_size():
    with pytest.raises(ValueError):
        Transaction(tx_id=0, client_id=0, size_bytes=0)


def test_transaction_digest_unique():
    a = Transaction.create(client_id=1, size_bytes=512)
    b = Transaction.create(client_id=1, size_bytes=512)
    assert a.digest != b.digest


@pytest.mark.parametrize("fields", [
    (7, 0, 512),                                        # None seed and sender
    (2 ** 70, 3, 2 ** 65, 1.5, "", 2 ** 64 + 1, 2 ** 66, 2 ** 67, 2 ** 68,
     2 ** 69),                                          # ints past 64 bits
    (8, 1, 64, 0.25, "", 11, 1, 2, 0, 0),               # a zero amount
], ids=["opaque", "wide-ints", "zero-amount"])
def test_a_transaction_survives_a_pickle_round_trip(fields):
    original = Transaction(*fields)
    copy = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
    assert copy == original and hash(copy) == hash(original)


def test_unpickled_copies_share_one_digest_string():
    """Plain pickle — anything outside the realtime network's transaction
    table, or a received copy that matches no framed transaction — rebuilds
    its own transactions; their digests are one interned string."""
    frame = pickle.dumps(Batch(tuple(Transaction.create(0, 512, 0.0, seed)
                                     for seed in range(3))))
    first, second = pickle.loads(frame), pickle.loads(frame)
    assert first is not second
    for left, right in zip(first.transactions, second.transactions):
        assert left is not right
        assert left.payload_digest is right.payload_digest


def test_batch_counts_and_size():
    txs = tuple(Transaction.create(0, 512) for _ in range(3))
    batch = Batch(transactions=txs, filler_count=7, filler_tx_size=256, filler_nonce=1)
    assert batch.tx_count == 10
    assert batch.size_bytes == 3 * 512 + 7 * 256
    assert not batch.is_empty


def test_batch_roots_differ_by_nonce():
    a = Batch(filler_count=10, filler_tx_size=512, filler_nonce=1)
    b = Batch(filler_count=10, filler_tx_size=512, filler_nonce=2)
    assert a.root != b.root


def test_header_digest_is_memoised_outside_the_value():
    """The digest cache is an optimisation, not part of the header: equality,
    hashing, repr, ``replace`` and the wire format never see it."""
    fresh = build_block(0, 1, make_genesis().digest).header
    warm = build_block(0, 1, make_genesis().digest).header
    cold_frame = pickle.dumps(fresh)
    digest = warm.digest
    assert warm.digest is digest                      # computed once
    assert warm == fresh and hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh)
    # replace() builds a new header: the cache must not follow it.
    moved = dataclasses.replace(warm, round_number=5)
    assert "digest" not in vars(moved)
    assert moved.digest != digest
    # Frames neither carry the cache nor grow because of it, and a received
    # header recomputes its digest from its own fields.
    assert pickle.dumps(warm) == cold_frame
    received = pickle.loads(pickle.dumps(warm))
    assert received == warm and "digest" not in vars(received)
    assert received.digest == digest


def test_validate_block_signature_and_linkage():
    blocks, keystore = make_chain_blocks(2)
    genesis = make_genesis()
    validate_chain([genesis, blocks[0]], keystore)
    validate_chain(blocks, keystore)
    with pytest.raises(ValidationError, match="previous digest"):
        validate_chain([genesis, blocks[1]], keystore)  # wrong predecessor


def test_validate_block_rejects_unsigned():
    genesis = make_genesis()
    block = build_block(0, 0, genesis.digest,
                        batch=Batch(filler_count=1, filler_tx_size=64, filler_nonce=1))
    with pytest.raises(ValidationError, match="unsigned"):
        validate_chain([genesis, block], KeyStore(4))


def test_validate_chain_accepts_valid_segment():
    blocks, keystore = make_chain_blocks(5)
    validate_chain([make_genesis()] + blocks, keystore)


def test_distinct_proposers_window():
    blocks, _ = make_chain_blocks(4, proposers=[0, 1, 2, 3])
    assert distinct_proposers_window(blocks, window=2)
    repeated, _ = make_chain_blocks(4, proposers=[0, 1, 1, 2])
    assert not distinct_proposers_window(repeated, window=2)


# ---------------------------------------------------------------- Blockchain
def test_blockchain_append_and_finality_depth():
    chain = Blockchain(finality_depth=2)
    blocks, _ = make_chain_blocks(6)
    for block in blocks:
        chain.append(block)
    # With finality depth f+1 = 2, blocks deeper than depth 3 are definite.
    assert chain.height == 5
    assert chain.definite_height == 5 - 3
    assert [b.round_number for b in chain.tentative_blocks] == [3, 4, 5]
    assert chain.is_definite(2)
    assert not chain.is_definite(3)


def test_blockchain_rejects_gaps_and_forks():
    chain = Blockchain(finality_depth=2)
    blocks, _ = make_chain_blocks(3)
    chain.append(blocks[0])
    with pytest.raises(ValueError):
        chain.append(blocks[2])  # skips round 1
    fork = build_block(1, 2, "not-the-head-digest",
                       batch=Batch(filler_count=1, filler_tx_size=64, filler_nonce=9))
    with pytest.raises(ValueError):
        chain.append(fork)


def test_blockchain_block_at_round_and_depth():
    chain = Blockchain(finality_depth=2)
    blocks, _ = make_chain_blocks(4)
    for block in blocks:
        chain.append(block)
    assert chain.block_at_round(2).round_number == 2
    assert chain.block_at_round(99) is None


def test_version_for_recovery_window():
    chain = Blockchain(finality_depth=2)
    blocks, _ = make_chain_blocks(6)
    for block in blocks:
        chain.append(block)
    version = chain.version_for_recovery(recovery_round=5)
    assert [b.round_number for b in version.blocks] == [3, 4, 5]
    behind = Blockchain(finality_depth=2)
    assert behind.version_for_recovery(recovery_round=5).is_empty


def test_adopt_version_replaces_tentative_suffix():
    keystore = KeyStore(4)
    blocks, _ = make_chain_blocks(5, keystore=keystore)
    chain = Blockchain(finality_depth=2)
    for block in blocks:
        chain.append(block)

    # Build an alternative suffix for rounds 4..5 linking to block 3.
    alt4 = build_block(4, 2, blocks[3].digest,
                       batch=Batch(filler_count=2, filler_tx_size=64, filler_nonce=77))
    alt4 = dataclasses.replace(
        alt4, signature=keystore.key_for(2).sign(alt4.digest))
    alt5 = build_block(5, 3, alt4.digest,
                       batch=Batch(filler_count=2, filler_tx_size=64, filler_nonce=78))
    alt5 = dataclasses.replace(
        alt5, signature=keystore.key_for(3).sign(alt5.digest))
    removed = chain.adopt_version(ChainVersion(sender=1, blocks=(alt4, alt5)))

    assert [b.round_number for b in removed] == [4]
    assert chain.head.digest == alt5.digest
    assert chain.height == 5


def test_adopt_version_never_rewrites_definite_prefix():
    chain = Blockchain(finality_depth=1)
    blocks, keystore = make_chain_blocks(6)
    for block in blocks:
        chain.append(block)
    definite_round = chain.definite_height
    bogus = build_block(definite_round, 0, "bogus-prev",
                        batch=Batch(filler_count=1, filler_tx_size=64, filler_nonce=5))
    with pytest.raises(ValueError):
        chain.adopt_version(ChainVersion(sender=0, blocks=(bogus,)))


# -------------------------------------------------------------------- TxPool
def test_txpool_priority_to_client_transactions():
    pool = TxPool(default_tx_size=512, rng=random.Random(1))
    client_tx = Transaction.create(client_id=7, size_bytes=512)
    pool.submit(client_tx)
    batch = pool.take_batch(10)
    assert client_tx in batch.transactions
    assert batch.tx_count == 10
    assert batch.filler_count == 9


def test_txpool_no_fill_mode_returns_partial_batches():
    pool = TxPool(default_tx_size=512)
    batch = pool.take_batch(10, fill_random=False)
    assert batch.is_empty
    pool.submit(Transaction.create(client_id=1, size_bytes=512))
    batch = pool.take_batch(10, fill_random=False)
    assert batch.tx_count == 1


def test_txpool_requeue_keeps_only_client_transactions():
    pool = TxPool(default_tx_size=512)
    client_tx = Transaction.create(client_id=3, size_bytes=512)
    synthetic = Transaction.create(client_id=TxPool.SYNTHETIC_CLIENT_ID, size_bytes=512)
    pool.requeue([client_tx, synthetic])
    assert pool.pending == 1


def test_txpool_batches_have_unique_roots():
    pool = TxPool(default_tx_size=512, rng=random.Random(2))
    roots = {pool.take_batch(100).root for _ in range(50)}
    assert len(roots) == 50
