"""Property-based tests (hypothesis) of core data structures and invariants."""

import pickle
import random
from dataclasses import FrozenInstanceError, replace
from itertools import accumulate
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import protocols
from repro.core.config import FireLedgerConfig
from repro.core.timers import AdaptiveTimer
from repro.crypto.cost_model import CryptoCostModel, M5_XLARGE
from repro.crypto.hashing import merkle_root
from repro.crypto.vrf import proposer_permutation
from repro.ledger import Batch, Blockchain, ChainVersion, Transaction, build_block
from repro.ledger.delivery import RoundRobinMerge
from repro.ledger.state import LedgerExecutor, verify_state_agreement
from repro.crypto.keys import KeyStore
from repro.ledger.delivery import DeliveryStream
from repro.metrics.recorder import NodeMetrics
from repro.metrics.summary import LatencyHistogram, percentile
from repro.net.network import Network
from repro.protocols.multiplexed import MultiplexedNode
from repro.sim import Environment
from repro.workload.clients import (
    OpenLoopClient,
    TransferModel,
    _cumulative_weights,
    _next_write,
    hotspot_weights,
)
from tests import reference_commit_metrics, reference_txpath
from tests.reference_fold import cluster_fold, lane_fold

common_settings = settings(max_examples=50,
                           suppress_health_check=[HealthCheck.too_slow],
                           deadline=None)


# ------------------------------------------------------------------ hashing
@common_settings
@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=32))
def test_merkle_root_deterministic_and_order_sensitive(leaves_raw):
    from repro.crypto.hashing import hash_bytes
    leaves = [hash_bytes(raw) for raw in leaves_raw]
    assert merkle_root(leaves) == merkle_root(list(leaves))
    if len(set(leaves)) > 1:
        shuffled = list(leaves)
        shuffled.reverse()
        if shuffled != leaves:
            assert merkle_root(shuffled) != merkle_root(leaves)


@common_settings
@given(st.integers(min_value=1, max_value=64), st.text(min_size=1, max_size=20))
def test_proposer_permutation_properties(n_nodes, seed):
    permutation = proposer_permutation(n_nodes, seed)
    assert sorted(permutation) == list(range(n_nodes))
    assert permutation == proposer_permutation(n_nodes, seed)


# ---------------------------------------------------------------- cost model
@common_settings
@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=8192),
       st.integers(min_value=1, max_value=32))
def test_cost_model_monotonicity(batch, tx_size, workers):
    model = CryptoCostModel(M5_XLARGE)
    assert model.block_sign_time(batch, tx_size) > 0
    assert (model.block_sign_time(batch + 1, tx_size)
            >= model.block_sign_time(batch, tx_size))
    sps = model.signatures_per_second(batch, tx_size, workers)
    capped = model.signatures_per_second(batch, tx_size, M5_XLARGE.cores)
    assert sps <= capped + 1e-9


# -------------------------------------------------------------------- batches
@common_settings
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=4096), st.integers(min_value=0, max_value=2 ** 32))
def test_batch_counts_are_consistent(n_explicit, filler, tx_size, nonce):
    txs = tuple(Transaction.create(client_id=1, size_bytes=tx_size)
                for _ in range(n_explicit))
    batch = Batch(transactions=txs, filler_count=filler, filler_tx_size=tx_size,
                  filler_nonce=nonce)
    assert batch.tx_count == n_explicit + filler
    assert batch.size_bytes == (n_explicit + filler) * tx_size
    assert batch.is_empty == (batch.tx_count == 0)
    # The root commits to the content: changing the filler changes the root.
    if filler:
        other = Batch(transactions=txs, filler_count=filler + 1,
                      filler_tx_size=tx_size, filler_nonce=nonce)
        assert other.root != batch.root


# ----------------------------------------------------------------- blockchain
def build_random_chain(rng, length, finality_depth, n_nodes=4):
    keystore = KeyStore(n_nodes)
    chain = Blockchain(finality_depth=finality_depth)
    previous_proposer = -1
    for round_number in range(length):
        choices = [p for p in range(n_nodes) if p != previous_proposer]
        proposer = rng.choice(choices)
        previous_proposer = proposer
        batch = Batch(filler_count=rng.randint(0, 5), filler_tx_size=64,
                      filler_nonce=rng.randrange(2 ** 32))
        block = build_block(round_number, proposer, chain.head.digest, batch=batch)
        block = replace(block, signature=keystore.key_for(proposer).sign(block.digest))
        chain.append(block)
    return chain


@common_settings
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31))
def test_blockchain_finality_invariants(length, finality_depth, seed):
    """BBFC invariants: the definite prefix is exactly depth > f+1 and ordered."""
    rng = random.Random(seed)
    chain = build_random_chain(rng, length, finality_depth)
    assert chain.height == length - 1 if length else chain.height == -1
    # Finality boundary.
    expected_definite = max(length - 1 - (finality_depth + 1), -1)
    assert chain.definite_height == expected_definite
    # Hash-linkage and round monotonicity of the whole chain.
    blocks = chain.blocks
    for previous, block in zip(blocks, blocks[1:]):
        assert block.previous_digest == previous.digest
        assert block.round_number == previous.round_number + 1
    # Every definite block is also reported as definite.
    for block in chain.definite_blocks:
        assert chain.is_definite(block.round_number)
        assert chain.height - block.round_number > finality_depth


@common_settings
@given(st.integers(min_value=8, max_value=30), st.integers(min_value=0, max_value=2 ** 31))
def test_recovery_version_roundtrip_preserves_definite_prefix(length, seed):
    """Adopting a node's own recovery version never changes the chain."""
    rng = random.Random(seed)
    chain = build_random_chain(rng, length, finality_depth=2)
    recovery_round = chain.height + 1
    version = chain.version_for_recovery(recovery_round)
    definite_before = [b.digest for b in chain.definite_blocks]
    head_before = chain.head.digest
    removed = chain.adopt_version(version)
    assert removed == []
    assert chain.head.digest == head_before
    assert [b.digest for b in chain.definite_blocks] == definite_before


# --------------------------------------------------------------------- timers
@common_settings
@given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0, max_value=2.0)),
                min_size=1, max_size=200))
def test_adaptive_timer_always_within_bounds(events):
    timer = AdaptiveTimer()
    for success, delay in events:
        if success:
            timer.record_success(delay)
        else:
            timer.record_failure()
        assert AdaptiveTimer.MINIMUM <= timer.current <= AdaptiveTimer.MAXIMUM


# ------------------------------------------------------------------ percentile
@common_settings
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1,
                max_size=200),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_range(samples, q):
    value = percentile(samples, q)
    assert min(samples) <= value <= max(samples)


# ----------------------------------------------------------------- metric fold
#: Values whose float sum depends on the order of the additions (0.1 + 0.2 +
#: 0.3 != 0.3 + 0.2 + 0.1; 1e16 swallows a following 1.0), next to ordinary
#: magnitudes: a fold that regroups or reorders its terms cannot hide.
_ORDER_SENSITIVE = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1e16, 1e-9, 3.0])
_VALUES = _ORDER_SENSITIVE | st.floats(min_value=0, max_value=1e9,
                                       allow_nan=False)


def _keyed(*keys):
    """Dicts over a small key pool: parts overlap, miss keys, disagree on
    first-seen order."""
    return st.dictionaries(st.sampled_from(keys), _VALUES, max_size=len(keys))


def _histogram(samples):
    histogram = LatencyHistogram()
    histogram.extend(samples)
    return histogram


node_metrics = st.builds(
    NodeMetrics, tps=_VALUES, bps=_VALUES, recoveries_per_second=_VALUES,
    latency_samples=st.lists(_VALUES, max_size=4),
    latency_histogram=st.none() | st.lists(
        st.floats(min_value=0, max_value=6.0), max_size=4).map(_histogram),
    stage_breakdown=_keyed("A->B", "B->C", "C->D", "D->E"),
    totals=_keyed("signatures", "recoveries", "tx_rejected", "views_timed_out"),
    means=_keyed("blocks_committed", "transactions_committed", "tx_rejected"))


def _canned_lane(metrics):
    """A lane node whose ``metrics`` are canned."""
    return SimpleNamespace(delivery_stream=DeliveryStream(),
                           metrics=lambda duration: metrics)


def _same_dict(new, old):
    """Equal with ``==`` on every value *and* in key order."""
    return new == old and list(new) == list(old)


@common_settings
@given(st.lists(node_metrics, max_size=5))
def test_combine_average_is_the_old_cluster_fold(parts):
    merged = NodeMetrics.combine(parts, average=True)
    old = cluster_fold(parts)
    assert (merged.tps, merged.bps, merged.recoveries_per_second) == (
        old["tps"], old["bps"], old["recoveries_per_second"])
    assert merged.latency_samples == old["latency_samples"]
    assert _same_dict({**merged.stage_breakdown, **merged.totals,
                       **merged.means}, old["breakdown"])
    if merged.latency_histogram is not None:
        # run_cluster pools the still-live raw samples into the merge.
        merged.latency_histogram.extend(merged.latency_samples)
    assert merged.latency_histogram == old["latency_histogram"]


@common_settings
@given(st.lists(node_metrics, max_size=5))
def test_combine_sum_is_the_old_lane_fold(parts):
    merged = NodeMetrics.combine(parts, average=False)
    old = lane_fold(parts, lanes=len(parts))
    if parts:
        # The whole hook: the fold plus the lane<i>_tx_rejected / lane_skew
        # lines multiplexed.py appends (after the fold's keys, where the old
        # loop interleaved them — so key order is compared on the fold only).
        node = MultiplexedNode(0, [_canned_lane(part) for part in parts])
        assert node.metrics(duration=1.0) == old
    for name in ("totals", "means"):
        fold_only = {key: value for key, value in getattr(old, name).items()
                     if not key.startswith("lane")}
        assert _same_dict(getattr(merged, name), fold_only)
        setattr(old, name, fold_only)
    assert _same_dict(merged.stage_breakdown, old.stage_breakdown)
    assert merged == old


# ------------------------------------------------------- round-robin merge
@common_settings
@given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=5),
       data=st.data())
def test_round_robin_merge_is_a_function_of_the_per_source_sequences(
        counts, data):
    """FLO's worker merge and the lane merge are this one object: any
    interleaving of the same per-source sequences releases the same merged
    order, and a source that has nothing yet blocks the merge — what was
    released is at every moment a prefix of the round-robin order, never a
    skip past the stalled source."""
    sources = len(counts)
    expected = []
    while counts[len(expected) % sources] > len(expected) // sources:
        expected.append((len(expected) % sources, len(expected) // sources))
    arrival = data.draw(st.permutations(
        [source for source, count in enumerate(counts) for _ in range(count)]))
    released = []
    merge = RoundRobinMerge(sources, lambda source, item:
                            released.append((source, item)))
    offered = [0] * sources
    for source in arrival:
        merge.offer(source, offered[source])
        offered[source] += 1
        assert released == expected[:len(released)]
        assert len(released) + merge.pending == sum(offered)
    assert released == expected


def test_round_robin_merge_holds_its_turn_under_a_reentrant_offer():
    """``release`` may offer (a delivery consumer that produces): the cursor
    has already moved on, so the nested item waits for its turn."""
    released = []

    def release(source, item):
        released.append((source, item))
        if item == "a0":
            merge.offer(0, "a1")    # source 0 again, from inside its release
            merge.offer(1, "b0")

    merge = RoundRobinMerge(2, release)
    merge.offer(0, "a0")
    assert released == [(0, "a0"), (1, "b0"), (0, "a1")]
    assert merge.pending == 0


# ---------------------------------------------- baselines' commit-log metrics
#: One commit: (gap to the previous slot, tx_count, time since the previous
#: commit, age of the proposal at commit).  A zero step commits two batches
#: at one instant; a gap above 1 is a HotStuff view nobody proposed in.
_commits = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 1000),
              st.sampled_from([0.0, 0.1, 0.2, 0.3]) | st.floats(0, 0.2),
              st.floats(0, 0.3)),
    max_size=30)


@common_settings
@given(protocol=st.sampled_from(["hotstuff", "bftsmart"]), commits=_commits,
       warmup=st.sampled_from([0.0, 0.1, 0.3]) | st.floats(0, 2.0),
       measured=st.floats(0.01, 3.0),
       pool_cap=st.none() | st.integers(1, 5), rejected=st.integers(0, 4),
       signatures=st.integers(0, 9), timeouts=st.integers(0, 9),
       streaming=st.booleans())
def test_recorder_metrics_are_the_old_commit_log_metrics(
        protocol, commits, warmup, measured, pool_cap, rejected, signatures,
        timeouts, streaming):
    """A baseline replica reporting through its recorder yields the
    ``NodeMetrics`` its own commit log and fold did: every field ``==``, dict
    keys in the same order — a commit landing exactly on the warm-up edge
    (0.1 + 0.2 vs 0.3) included.  Streaming only moves latency samples into
    the histogram."""
    env = Environment()
    config = FireLedgerConfig(n_nodes=4, pool_max_pending=pool_cap,
                              retention_rounds=4 if streaming else None)
    (replica, *_) = protocols.get(protocol)(env, Network(env, 4), KeyStore(4),
                                            config, random.Random(1))
    timeout_counter = replica.COUNTERS[0]
    old = reference_commit_metrics.ReferenceReplica(replica.pool,
                                                    timeout_counter)
    replica.recorder.measure_start = warmup
    old.measure_start = warmup
    for _ in range((pool_cap or 0) + rejected):
        replica.pool.submit(Transaction.create(client_id=1, size_bytes=64))
    replica.recorder.count("signatures", signatures)
    replica.recorder.count(timeout_counter, timeouts)
    old.signatures = signatures
    setattr(old, timeout_counter, timeouts)

    def play():
        sequence = -1
        for gap, tx_count, step, age in commits:
            yield env.timeout(step)
            sequence += gap
            proposed_at = max(env.now - age, 0.0)
            replica._commit(sequence, tx_count, (), 0, proposed_at)
            old.commit(sequence, tx_count, proposed_at, env.now)

    env.process(play())
    duration = warmup + measured
    env.run(until=duration)
    new = replica.metrics(duration)
    expected = reference_commit_metrics.node_metrics(old, duration,
                                                     timeout_counter)
    assert replica.delivery_stream.deliveries == len(old.committed)
    for name in ("totals", "means", "stage_breakdown"):
        assert _same_dict(getattr(new, name), getattr(expected, name))
    if streaming:
        # Every record folded on its E: the samples are in the histogram
        # (exact count and sum, binned percentiles) and no record is live.
        assert replica.recorder.live_records == 0
        histogram = new.latency_histogram or LatencyHistogram()
        assert histogram.count == len(expected.latency_samples)
        folded = LatencyHistogram()
        folded.extend(expected.latency_samples)
        assert histogram == folded
        new.latency_samples, new.latency_histogram = (
            expected.latency_samples, None)
    assert new == expected


# ------------------------------------------------------------ execution layer
N_ACCOUNTS = 4
INITIAL_BALANCE = 100

transfer_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N_ACCOUNTS - 1),   # sender
              st.integers(min_value=0, max_value=N_ACCOUNTS - 1),   # recipient
              st.integers(min_value=0, max_value=150),              # amount
              st.integers(min_value=0, max_value=6)),               # nonce
    min_size=0, max_size=60)


def balance_of(state, account):
    """An account's balance: its entry, or the genesis balance."""
    return state._balances.get(account, state.initial_balance)  # noqa: SLF001


def make_transfers(stream):
    return [Transaction.create(client_id=sender, size_bytes=8,
                               payload_seed=index, sender=sender,
                               recipient=recipient, amount=amount, nonce=nonce)
            for index, (sender, recipient, amount, nonce) in enumerate(stream)]


def apply_stream(executor, transfers, seed, block_min=1, block_max=7):
    """Partition ``transfers`` into seeded block sizes and deliver them."""
    rng = random.Random(seed)
    index, delivery = 0, 0
    while index < len(transfers):
        size = rng.randint(block_min, block_max)
        block = transfers[index:index + size]
        executor.apply_delivery(tag=("block", delivery, len(block)),
                                transactions=block, tx_count=len(block),
                                proposer=delivery % N_ACCOUNTS)
        index += size
        delivery += 1


@common_settings
@given(transfer_streams, st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=0, max_value=2 ** 31))
def test_agreed_delivery_order_yields_identical_state_roots(stream, shuffle_seed,
                                                            block_seed):
    """Any agreed ordering executes to one root: executors are pure functions
    of the delivered sequence, with no hidden per-node state."""
    ordering = make_transfers(stream)
    random.Random(shuffle_seed).shuffle(ordering)
    first = LedgerExecutor(N_ACCOUNTS, INITIAL_BALANCE, n_nodes=4)
    second = LedgerExecutor(N_ACCOUNTS, INITIAL_BALANCE, n_nodes=4)
    apply_stream(first, ordering, seed=block_seed)
    apply_stream(second, ordering, seed=block_seed)
    assert first.state_root == second.state_root
    assert first.deliveries == second.deliveries
    for counter in ("applied", "stale", "invalid"):
        assert getattr(first.state, counter) == getattr(second.state, counter)
    deliveries, root = verify_state_agreement([first, second])
    assert deliveries == first.deliveries
    assert root == first.state_root
    # Money is conserved under every ordering and every block partition.
    total = sum(balance_of(first.state, account)
                for account in range(N_ACCOUNTS))
    assert total == N_ACCOUNTS * INITIAL_BALANCE
    # Outcomes partition the stream (all transfers) exactly.
    state = first.state
    assert state.applied + state.stale + state.invalid == len(stream)


@common_settings
@given(transfer_streams, st.integers(min_value=0, max_value=2 ** 31))
def test_replayed_transfers_are_rejected_exactly_once(stream, block_seed):
    """Re-delivering the whole stream changes nothing: every replay lands
    below the sender's advanced nonce and is counted stale, exactly once."""
    transfers = make_transfers(stream)
    executor = LedgerExecutor(N_ACCOUNTS, INITIAL_BALANCE, n_nodes=4)
    apply_stream(executor, transfers, seed=block_seed)
    applied, invalid = executor.state.applied, executor.state.invalid
    stale = executor.state.stale
    balances = [balance_of(executor.state, a) for a in range(N_ACCOUNTS)]
    apply_stream(executor, transfers, seed=block_seed + 1)
    # The replay applied/invalidated nothing and went stale wholesale.
    assert executor.state.applied == applied
    assert executor.state.invalid == invalid
    assert executor.state.stale == stale + len(transfers)
    assert [balance_of(executor.state, a) for a in range(N_ACCOUNTS)] == balances


@common_settings
@given(transfer_streams, st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=8))
def test_pruned_history_never_changes_the_root(stream, block_seed, limit):
    """A bounded delivery history (the pruning analogue) affects only how far
    back the oracle can compare — never the root itself."""
    transfers = make_transfers(stream)
    unbounded = LedgerExecutor(N_ACCOUNTS, INITIAL_BALANCE, n_nodes=4)
    bounded = LedgerExecutor(N_ACCOUNTS, INITIAL_BALANCE, n_nodes=4,
                             history_limit=limit)
    apply_stream(unbounded, transfers, seed=block_seed)
    apply_stream(bounded, transfers, seed=block_seed)
    assert bounded.state_root == unbounded.state_root
    deliveries, root = verify_state_agreement([unbounded, bounded])
    assert deliveries == unbounded.deliveries
    if unbounded.deliveries:
        assert root == unbounded.state_root
    # The bounded executor really pruned once past its window.
    if unbounded.deliveries > limit:
        assert bounded.oldest_recorded > 1


# ------------------------------------------- transaction path vs its oracle
large_ints = st.integers(min_value=0, max_value=2 ** 80)
transfer_fields = st.tuples(large_ints, large_ints, large_ints, large_ints)


@common_settings
@given(large_ints, st.integers(min_value=1, max_value=2 ** 40),
       st.none() | large_ints, st.none() | transfer_fields)
def test_payload_digest_is_the_old_hash_fields_digest(client_id, size_bytes,
                                                      payload_seed, transfer):
    """The digest written out for its fields in ``Transaction.__post_init__``
    is the string ``hash_fields`` built (``None`` seeds fall back to the
    ``tx_id``, opaque payloads stop after the size, zero amounts and ints
    past 64 bits included), so no Merkle root or state root can move."""
    transaction = Transaction.create(client_id, size_bytes, 0.0, payload_seed,
                                     *(transfer or ()))
    assert transaction.payload_digest == reference_txpath.payload_digest(
        transaction.tx_id, client_id, size_bytes, payload_seed,
        *(transfer or (None, None, 0, 0)))
    assert transaction.digest == transaction.payload_digest


@common_settings
@given(st.none() | st.lists(st.floats(min_value=0.0, max_value=100.0),
                            min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
       st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=40))
def test_cumulative_weights_draw_the_old_picks(weights, seed, draws):
    """Accumulating the weights once changes no pick and leaves the RNG in
    the same state, so everything drawn after a pick is unchanged too."""
    nodes = list(range(len(weights) if weights else 7))
    assert _cumulative_weights(weights, nodes) == (
        None if weights is None else list(accumulate(weights)))
    harness = _Submissions(len(nodes))
    client = OpenLoopClient(harness, 0, harness.nodes, 1.0,
                            rng=random.Random(seed), weights=weights)
    slow = random.Random(seed)
    slow.randrange(2 ** 62)  # the client's payload stream seed
    assert ([_next_write(client)[0] for _ in range(draws)]
            == [reference_txpath.pick_node(slow, harness.nodes, weights)
                for _ in range(draws)])
    assert client.rng.getstate() == slow.getstate()


class _Submissions:
    """Stand-ins for an open-loop client's surroundings: nodes that accept
    every transaction into one shared log, and the two members it reads of
    its environment (``now``, and ``call_later`` recording each gap)."""

    now = 0.0

    def __init__(self, n_nodes):
        self.log, self.gaps = [], []
        self.nodes = [_LoggingNode(node_id, self.log)
                      for node_id in range(n_nodes)]

    def call_later(self, delay, fn, arg):
        self.gaps.append(delay)


class _LoggingNode:
    def __init__(self, node_id, log):
        self.node_id, self.log = node_id, log

    def submit_transaction(self, transaction):
        self.log.append((self.node_id, transaction))
        return True


@common_settings
@given(st.none() | st.lists(st.floats(min_value=0.0, max_value=100.0),
                            min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
       st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=0, max_value=2 ** 70),
       st.sampled_from([0.0, 0.5, 1.5]),
       st.floats(min_value=0.01, max_value=1e6),
       st.integers(min_value=1, max_value=40))
def test_open_loop_draws_are_the_stdlib_draws(weights, seed, max_amount,
                                              recipient_skew, rate, arrivals):
    """An arrival written out with the stdlib's own arithmetic picks the same
    node and recipient, draws the same payload seed, amount (past 64 bits
    too) and gap, and leaves all three RNGs in the same state as
    ``choices`` / ``randrange`` / ``randint`` / ``expovariate`` did."""
    n_accounts = 9
    harness = _Submissions(len(weights) if weights else 5)
    client = OpenLoopClient(
        harness, 3, harness.nodes, rate, rng=random.Random(seed),
        weights=weights, transfers=TransferModel(
            3, n_accounts, random.Random(seed + 1), max_amount,
            recipient_skew))
    for _ in range(arrivals):
        client._arrive(True)

    rng = random.Random(seed)
    payload_rng = random.Random(rng.randrange(2 ** 62))
    transfer_rng = random.Random(seed + 1)
    accounts = list(range(n_accounts))
    hot = hotspot_weights(n_accounts, recipient_skew) if recipient_skew else None
    expected = []
    for _ in range(arrivals):
        node = reference_txpath.pick_node(rng, harness.nodes, weights)
        expected.append((
            node.node_id, reference_txpath.payload_seed(payload_rng),
            reference_txpath.pick_node(transfer_rng, accounts, hot),
            reference_txpath.transfer_amount(transfer_rng, max_amount),
            reference_txpath.arrival_gap(rng, rate)))
    assert [(node_id, tx.payload_seed, tx.recipient, tx.amount, gap)
            for (node_id, tx), gap in zip(harness.log, harness.gaps)] == expected
    assert client.rng.getstate() == rng.getstate()
    assert client.payload_rng.getstate() == payload_rng.getstate()
    assert client.transfers.rng.getstate() == transfer_rng.getstate()


#: Digests as a caller may hand them in: quotes, backslashes and non-ASCII
#: text render differently under ``repr`` than a hex digest does.
awkward_digests = st.text(alphabet=st.sampled_from(
    "0123456789abcdef'\"\\|()\u00e9\u4e2d\U0001f600 \n"), max_size=12)


def _built(cls, args, kwargs):
    """``cls(*args, **kwargs)``, or the text of the ``ValueError`` it raised."""
    try:
        return cls(*args, **kwargs)
    except ValueError as error:
        return f"ValueError: {error}"


def _assignment_error(transaction):
    try:
        transaction.amount = 1
    except FrozenInstanceError as error:
        return str(error)
    return None


@common_settings
@given(st.integers(min_value=0, max_value=2 ** 70),
       st.integers(min_value=-3, max_value=2 ** 70),
       st.integers(min_value=-2, max_value=2 ** 40),
       st.floats(allow_nan=False, allow_infinity=False),
       st.just("") | awkward_digests,
       st.none() | st.integers(min_value=0, max_value=2 ** 80),
       st.none() | st.integers(min_value=-2, max_value=2 ** 70),
       st.none() | st.integers(min_value=-2, max_value=2 ** 70),
       st.integers(min_value=-2, max_value=2 ** 70),
       st.integers(min_value=-2, max_value=2 ** 70),
       st.integers(min_value=0, max_value=10), awkward_digests)
def test_one_constructor_is_the_generated_init_and_post_init(
        tx_id, client_id, size_bytes, submitted_at, digest, payload_seed,
        sender, recipient, amount, nonce, keywords, forged_digest):
    """The hand-written ``Transaction.__init__`` builds what the dataclass's
    generated ``__init__`` plus ``__post_init__`` built, positional or by
    keyword: the same fields and digest (a given digest is kept), the same
    ``ValueError`` texts, ``==`` / ``hash`` / ``repr``, the same pickle
    round trip, ``dataclasses.replace`` with and without a digest, and the
    same ``FrozenInstanceError``."""
    values = (tx_id, client_id, size_bytes, submitted_at, digest,
              payload_seed, sender, recipient, amount, nonce)
    names = Transaction.__slots__
    args = values[:keywords]
    kwargs = dict(zip(names[keywords:], values[keywords:]))
    new = _built(Transaction, args, kwargs)
    old = _built(reference_txpath.Transaction, args, kwargs)
    if isinstance(old, str):
        assert new == old
        return
    fields_of = reference_txpath._field_values  # noqa: SLF001
    assert fields_of(new) == fields_of(old)
    assert new.digest == old.digest == new.payload_digest
    if digest:
        assert new.payload_digest == digest
    assert new == Transaction(*values) and not new != Transaction(*values)
    assert hash(new) == hash(old) == hash(Transaction(*values))
    assert repr(new) == repr(old)
    assert not hasattr(new, "__dict__")
    copy = pickle.loads(pickle.dumps(new))
    assert copy == new and type(copy) is Transaction
    assert fields_of(copy) == fields_of(pickle.loads(pickle.dumps(old)))
    assert fields_of(replace(new, nonce=abs(nonce) + 1)) == fields_of(
        replace(old, nonce=abs(nonce) + 1))  # a forgery keeps its digest
    if forged_digest:
        assert fields_of(replace(new, payload_digest=forged_digest)) == \
            fields_of(replace(old, payload_digest=forged_digest))
    assert _assignment_error(new) == _assignment_error(old) is not None
    assert fields_of(new) == values[:4] + (new.payload_digest,) + values[5:]


@common_settings
@given(st.lists(st.tuples(
           st.none() | st.tuples(
               st.integers(min_value=0, max_value=N_ACCOUNTS - 1),  # sender
               st.integers(min_value=0, max_value=N_ACCOUNTS - 1),  # recipient
               st.integers(min_value=0, max_value=150),             # amount
               st.integers(min_value=0, max_value=6)),              # nonce
           st.just("") | awkward_digests),                          # digest
           max_size=60),
       st.integers(min_value=0, max_value=2 ** 31))
def test_executor_loop_is_the_old_reflective_loop(stream, block_seed):
    """Blocks of opaque payloads and transfers between four shared senders
    (self-transfers included; digests derived or handed in, quotes,
    backslashes and non-ASCII included) execute to the same roots after
    every delivery, counters, conflicts, balances and per-sender histograms
    through the one-loop ``LedgerState.apply_block`` and the
    tuple-per-outcome ``apply_transaction`` loop it replaced, under plain,
    tuple and ``(lane, tag)`` tags."""
    transactions = [
        Transaction(index, index % 3, 8, index * 0.001, digest, index,
                    *(transfer or ()))
        for index, (transfer, digest) in enumerate(stream)]
    executor = LedgerExecutor(N_ACCOUNTS, INITIAL_BALANCE, n_nodes=4)
    oracle = reference_txpath.ReferenceExecutor(N_ACCOUNTS, INITIAL_BALANCE,
                                                n_nodes=4)
    rng = random.Random(block_seed)
    index = delivery = 0
    while index < len(transactions):
        size = rng.randint(1, 7)
        block = tuple(transactions[index:index + size])
        tag = (("block", delivery), (delivery % 4, f"d'{delivery}\u00e9"),
               f"{delivery}", [delivery, None])[delivery % 4]
        tx_count = (len(block) + delivery % 2, None)[delivery % 5 == 4]
        for target in (executor, oracle):
            target.apply_delivery(tag, block, tx_count=tx_count,
                                  proposer=delivery % 4, now=1.0 + delivery)
        assert executor.state_root == oracle.state_root
        index += size
        delivery += 1
    assert list(executor._history) == list(oracle._history)
    assert executor.conflicts == oracle.conflicts
    assert executor.deliveries == oracle.deliveries == delivery
    opaque = vars(oracle.state).pop("opaque")
    assert opaque == sum(transfer is None for transfer, _digest in stream)
    assert vars(executor.state) == vars(oracle.state)
    assert executor._proposer_tx == oracle._proposer_tx
    assert ([(sender, vars(histogram))
             for sender, histogram in executor._sender_latency.items()]
            == [(sender, vars(histogram))
                for sender, histogram in oracle._sender_latency.items()])
    assert executor.fairness() == oracle.fairness()


# ------------------------------------------------------- scenario spec parsing
def _scenario_specs():
    """Valid ``ScenarioSpec`` objects exercising every block and field kind."""
    from repro import adversary
    from repro.scenarios import faultplan
    from repro.scenarios.spec import (
        AdversarySpec, ExecutionSpec, LanesSpec, LinkSpec, PoolSpec,
        RegionSpec, RetentionSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
        WORKLOAD_SHAPES)

    regions = st.lists(st.sampled_from(["a", "b", "c"]), min_size=2,
                       max_size=3, unique=True)
    wan = regions.map(lambda names: TopologySpec(
        kind="regions",
        regions=tuple(RegionSpec(name, nodes=index + 1, local_ms=0.5)
                      for index, name in enumerate(names)),
        links=(LinkSpec(names[0], names[1], 12.5, bandwidth_mbps=100.0),)))
    topology = st.one_of(st.just(TopologySpec()),
                         st.just(TopologySpec(kind="paper-geo", jitter=0.1)),
                         wan)
    workload = st.builds(
        WorkloadSpec, shape=st.sampled_from(WORKLOAD_SHAPES),
        n_clients=st.integers(1, 8),
        rate_per_client=st.floats(1.0, 500.0), tx_size=st.integers(1, 4096),
        hotspot_skew=st.floats(0.0, 2.0))
    execution = st.builds(ExecutionSpec, enabled=st.booleans(),
                          n_accounts=st.integers(1, 64),
                          recipient_skew=st.floats(0.0, 2.0))
    retention = st.builds(RetentionSpec,
                          chain_rounds=st.none() | st.integers(1, 99))
    pool = st.builds(PoolSpec, max_pending=st.none() | st.integers(1, 999))
    lanes = st.builds(LanesSpec, count=st.integers(1, 4))
    params = st.sampled_from([(), (("delay", 0.1),),
                              (("down_time", 0.2), ("up_time", 0.3))])
    attacker = st.builds(AdversarySpec,
                         strategy=st.sampled_from(adversary.names()),
                         params=params)
    phases = st.lists(st.sampled_from([
        faultplan.byzantine(3), faultplan.crash((1, 2), at=0.3),
        faultplan.recover(1, at=0.6), faultplan.loss(0.1, start=0.1, end=0.4),
        faultplan.partition(((0, 1), (2, 3)), start=0.2, end=0.5),
    ]), max_size=3, unique=True).map(
        lambda chosen: faultplan.FaultSchedule(tuple(chosen)))
    overrides = st.sampled_from([(), (("permute_every", 16),),
                                 (("failure_detector", False),
                                  ("permute_every", 8))])
    return st.builds(
        ScenarioSpec, name=st.sampled_from(["x", "soak-2"]),
        protocol=st.sampled_from(["fireledger", "hotstuff", "bftsmart"]),
        n_nodes=st.integers(4, 10), workers=st.integers(1, 4),
        duration=st.floats(1.0, 3.0), warmup=st.floats(0.0, 0.5),
        topology=topology, workload=workload, faults=phases,
        adversary=attacker, execution=execution, retention=retention,
        pool=pool, lanes=lanes, config_overrides=overrides)


@common_settings
@given(st.data())
def test_scenario_spec_round_trips_through_its_dict_shape(data):
    """``from_dict(asdict(spec)) == spec`` over every block, with each of the
    three shorthands and the mapping spelling of key/value pairs mixed in."""
    from dataclasses import asdict

    from repro.scenarios.spec import ScenarioSpec

    spec = data.draw(_scenario_specs())
    document = asdict(spec)
    assert ScenarioSpec.from_dict(document) == spec
    if data.draw(st.booleans()):
        document["lanes"] = spec.lanes.count
    if data.draw(st.booleans()):
        document["faults"] = document["faults"]["phases"]
    if not spec.adversary.params and data.draw(st.booleans()):
        document["adversary"] = spec.adversary.strategy
    if data.draw(st.booleans()):
        document["config_overrides"] = dict(spec.config_overrides)
        document["adversary"] = (document["adversary"]
                                 if isinstance(document["adversary"], str)
                                 else {**document["adversary"],
                                       "params": dict(spec.adversary.params)})
    assert ScenarioSpec.from_dict(document) == spec
    # Already-built blocks pass through untouched.
    assert ScenarioSpec.from_dict({**document, "topology": spec.topology,
                                   "pool": spec.pool}) == spec
