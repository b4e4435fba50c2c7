"""Client populations submitting transactions to FLO nodes.

The paper's evaluation saturates every block with randomly generated
transactions; these helpers provide the complementary modes — explicit client
populations submitting write requests — used by the examples, the tests of
end-to-end transaction delivery, and the declarative scenario layer
(:mod:`repro.scenarios`).  Available shapes:

* :class:`OpenLoopClient` — Poisson arrivals at a fixed or time-varying rate
  (:class:`ConstantRate`, :class:`RampRate`, :class:`BurstRate`), optionally
  hotspot-skewed toward a subset of nodes;
* :class:`ClosedLoopClient` — one request in flight at a time, next request
  only after the cluster has delivered new transactions (plus think time);
* :class:`ClientWorkload` — a population of either, with aggregate counters.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from math import log
from typing import Optional, Sequence, Union

from repro.core.flo import FLONode
from repro.ledger.transaction import Transaction
from repro.sim import Environment


# --------------------------------------------------------------- rate shapes
class RateShape:
    """Time-varying arrival rate: ``rate(now)`` in transactions/second."""

    def rate(self, now: float) -> float:
        raise NotImplementedError


class ConstantRate(RateShape):
    """The classic open-loop shape: one fixed rate forever."""

    def __init__(self, rate_per_second: float) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self.rate_per_second = rate_per_second

    def rate(self, now: float) -> float:
        return self.rate_per_second


class RampRate(RateShape):
    """Linear ramp from ``start`` to ``end`` over ``ramp_time`` seconds."""

    def __init__(self, start: float, end: float, ramp_time: float) -> None:
        if start <= 0 or end <= 0:
            raise ValueError("ramp rates must be positive")
        if ramp_time <= 0:
            raise ValueError("ramp_time must be positive")
        self.start = start
        self.end = end
        self.ramp_time = ramp_time

    def rate(self, now: float) -> float:
        progress = min(max(now / self.ramp_time, 0.0), 1.0)
        return self.start + (self.end - self.start) * progress


class BurstRate(RateShape):
    """Square-wave bursts: ``burst`` rate for the first ``duty`` fraction of
    every ``period``, ``base`` rate for the rest (a flash-crowd shape)."""

    def __init__(self, base: float, burst: float, period: float,
                 duty: float = 0.5) -> None:
        if base <= 0 or burst <= 0:
            raise ValueError("burst rates must be positive")
        if period <= 0 or not 0.0 < duty < 1.0:
            raise ValueError("require period > 0 and 0 < duty < 1")
        self.base = base
        self.burst = burst
        self.period = period
        self.duty = duty

    def rate(self, now: float) -> float:
        phase = (now % self.period) / self.period
        return self.burst if phase < self.duty else self.base


def _as_rate_shape(rate: Union[float, int, RateShape]) -> RateShape:
    return rate if isinstance(rate, RateShape) else ConstantRate(float(rate))


def _cumulative_weights(weights: Optional[Sequence[float]],
                        nodes: Sequence) -> Optional[list[float]]:
    """Validate per-node selection weights and accumulate them once.

    ``random.choices(weights=w)`` runs ``list(accumulate(w))`` on every call
    and then draws exactly as ``choices(cum_weights=...)`` does, so handing it
    the running sums computed here gives the same picks from the same RNG
    state.
    """
    if weights is None:
        return None
    if (len(weights) != len(nodes) or min(weights) < 0 or sum(weights) <= 0):
        raise ValueError("weights must be non-negative, one per node, "
                         "with a positive sum")
    return list(accumulate(weights))


def _next_write(client) -> tuple:
    """``(node, transaction)``: every draw one client write makes, in one
    frame shared by both client kinds.

    The draws are ``random.Random``'s own arithmetic, written out, in the
    order its methods made them: the target node as ``rng.choice(nodes)``
    or ``rng.choices(nodes, cum_weights=...)``, the payload identity as
    ``payload_rng.randrange(2 ** 62)``, and for a structured workload the
    recipient and the amount from the transfer model's RNG as ``choice`` /
    ``choices`` over the accounts and ``randint(0, max_amount)``.  An index
    below ``n`` is ``Random._randbelow``: ``getrandbits(n.bit_length())``
    until a draw lands below ``n``; a weighted pick bisects the running sums
    at ``random() * total``.  Same values, same RNG states, none of those
    methods' argument checks or frames.
    """
    rng = client.rng
    nodes = client.nodes
    cum_weights = client.cum_weights
    if cum_weights is None:
        count = len(nodes)
        bits = count.bit_length()
        index = rng.getrandbits(bits)
        while index >= count:
            index = rng.getrandbits(bits)
    else:
        index = bisect(cum_weights, rng.random() * (cum_weights[-1] + 0.0),
                       0, len(cum_weights) - 1)
    getrandbits = client.payload_rng.getrandbits
    payload_seed = getrandbits(63)
    while payload_seed >= 2 ** 62:
        payload_seed = getrandbits(63)
    transfers = client.transfers
    if transfers is None:
        return nodes[index], Transaction.create(
            client.client_id, client.tx_size, client.env.now, payload_seed)
    getrandbits = transfers.rng.getrandbits
    cum_weights = transfers.cum_weights
    if cum_weights is None:
        count = transfers.n_accounts
        bits = count.bit_length()
        recipient = getrandbits(bits)
        while recipient >= count:
            recipient = getrandbits(bits)
    else:
        recipient = bisect(cum_weights,
                           transfers.rng.random() * (cum_weights[-1] + 0.0),
                           0, len(cum_weights) - 1)
    count = transfers.max_amount + 1
    bits = count.bit_length()
    amount = getrandbits(bits)
    while amount >= count:
        amount = getrandbits(bits)
    nonce = transfers.nonce
    transfers.nonce = nonce + 1
    return nodes[index], Transaction.create(
        client.client_id, client.tx_size, client.env.now, payload_seed,
        transfers.sender, recipient, amount, nonce)


def hotspot_weights(n_nodes: int, skew: float) -> list[float]:
    """Zipf-like node selection weights: node ``i`` gets ``1/(i+1)**skew``.

    ``skew == 0`` is uniform; larger values concentrate traffic on the
    low-numbered nodes (node 0 is the hotspot).
    """
    if skew < 0:
        raise ValueError("skew must be non-negative")
    return [1.0 / (i + 1) ** skew for i in range(n_nodes)]


class TransferModel:
    """Structured-transfer emission for one client (the execution layer).

    The client owns sender account ``client_id % n_accounts`` and numbers its
    transfers with a local nonce counter.  When a scenario runs more clients
    than accounts, several clients share a sender and their independent nonce
    counters collide — deliberate stale-nonce contention the account machine
    must reject exactly once.  ``recipient_skew`` concentrates recipients on
    low-numbered accounts (Zipf-like, account 0 hottest), creating the
    read-write conflicts a hotspot workload is meant to exhibit.  The
    client's :func:`_next_write` draws each transfer from this model's RNG.
    """

    def __init__(self, client_id: int, n_accounts: int, rng: random.Random,
                 max_amount: int = 1_000, recipient_skew: float = 0.0) -> None:
        if n_accounts < 1:
            raise ValueError("n_accounts must be >= 1")
        if max_amount < 0:
            raise ValueError("max_amount must be >= 0")
        if recipient_skew < 0:
            raise ValueError("recipient_skew must be non-negative")
        self.sender = client_id % n_accounts
        self.n_accounts = n_accounts
        self.rng = rng
        self.max_amount = max_amount
        self.cum_weights = _cumulative_weights(
            hotspot_weights(n_accounts, recipient_skew)
            if recipient_skew else None, range(n_accounts))
        #: The nonce of the next transfer.
        self.nonce = 0


class OpenLoopClient:
    """One client issuing write requests with exponential inter-arrival times.

    ``rate`` is either a fixed transactions/second value or a
    :class:`RateShape` evaluated at submission time (the inter-arrival gap is
    drawn from the rate in force when the previous request was issued, which
    tracks ramps and bursts closely at simulation time scales).  ``weights``
    optionally skews the per-request node choice (see :func:`hotspot_weights`);
    the default picks uniformly.
    """

    def __init__(self, env: Environment, client_id: int, nodes: Sequence[FLONode],
                 rate_per_second: Union[float, RateShape], tx_size: int = 512,
                 rng: Optional[random.Random] = None,
                 weights: Optional[Sequence[float]] = None,
                 transfers: Optional[TransferModel] = None) -> None:
        self.shape = _as_rate_shape(rate_per_second)
        if tx_size <= 0:
            raise ValueError("tx_size must be positive")
        if not nodes:
            raise ValueError("need at least one node to submit to")
        self.env = env
        self.client_id = client_id
        self.nodes = list(nodes)
        self.tx_size = tx_size
        self.rng = rng or random.Random(client_id)
        # Payload identities come from a stream derived from this client's
        # seeded RNG — not from the process-global transaction id counter,
        # whose state leaks between runs and between clients.
        self.payload_rng = random.Random(self.rng.randrange(2 ** 62))
        self.cum_weights = _cumulative_weights(weights, self.nodes)
        self.transfers = transfers
        #: Accepted submissions: a counter, not a transaction list, so a
        #: long soak run's clients stay O(1) memory.
        self.submitted_count = 0

    def start(self) -> None:
        """Arm the arrival chain from the next zero-delay slot."""
        self.env.call_later(0.0, self._arrive, False)

    def _arrive(self, submit: bool) -> None:
        """Submit (unless this is the chain's first link), arm the next.

        A declined ``submit_transaction`` (the node's pool is at its cap) is
        open-loop behaviour: the request is lost, and the client
        keeps its arrival schedule.  The gap to the next arrival is
        ``rng.expovariate(rate)``'s draw at the rate in force now.
        """
        env = self.env
        if submit:
            node, transaction = _next_write(self)
            if node.submit_transaction(transaction):
                self.submitted_count += 1
        env.call_later(-log(1.0 - self.rng.random()) / self.shape.rate(env.now),
                       self._arrive, True)


class ClosedLoopClient:
    """One request outstanding at a time, then think, then the next request.

    Per-transaction completion is approximated: the client polls its target
    node's ``delivered_transactions`` counter and treats any delivery
    progress after its submission as completion of its own request (exact
    per-transaction tracking would require threading client identities
    through block bodies, which the saturated-mode ledger elides).
    """

    #: Seconds between two looks at the target's delivery counter (and the
    #: back-off after a declined submission).
    POLL_INTERVAL = 0.01

    def __init__(self, env: Environment, client_id: int, nodes: Sequence[FLONode],
                 think_time: float = 0.0, tx_size: int = 512,
                 rng: Optional[random.Random] = None,
                 weights: Optional[Sequence[float]] = None,
                 transfers: Optional[TransferModel] = None) -> None:
        if tx_size <= 0:
            raise ValueError("tx_size must be positive")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        if not nodes:
            raise ValueError("need at least one node to submit to")
        self.env = env
        self.client_id = client_id
        self.nodes = list(nodes)
        self.think_time = think_time
        self.tx_size = tx_size
        self.rng = rng or random.Random(client_id)
        # See OpenLoopClient: payload identities derive from the client's
        # seeded RNG, not the process-global transaction id counter.
        self.payload_rng = random.Random(self.rng.randrange(2 ** 62))
        self.cum_weights = _cumulative_weights(weights, self.nodes)
        self.transfers = transfers
        self.submitted_count = 0
        self.completed = 0

    def start(self) -> None:
        """Launch the submission process."""
        self.env.process(self.run())

    def run(self):
        """Submit, wait for delivery progress, think, repeat.

        A declined ``submit_transaction`` (the node's pool is at its cap) is
        closed-loop backpressure: the client backs off one poll interval and
        retries instead of waiting on a delivery that will never include its
        request.
        """
        while True:
            node, transaction = _next_write(self)
            before = node.delivered_transactions
            if not node.submit_transaction(transaction):
                yield self.env.timeout(self.POLL_INTERVAL)
                continue
            self.submitted_count += 1
            if node.delivered_transactions <= before:
                yield self.env.poll(
                    self.POLL_INTERVAL,
                    lambda: node.delivered_transactions > before)
            self.completed += 1
            if self.think_time:
                yield self.env.timeout(self.rng.expovariate(1.0 / self.think_time))


class ClientWorkload:
    """A population of clients attached to a cluster.

    The default constructor builds the classic homogeneous open-loop
    population; :meth:`from_clients` wraps an arbitrary pre-built mix (the
    scenario layer uses it for bursty / ramped / hotspot / closed-loop
    populations).
    """

    def __init__(self, env: Environment, nodes: Sequence[FLONode],
                 n_clients: int, rate_per_client: Union[float, RateShape],
                 tx_size: int = 512, seed: int = 0) -> None:
        rng = random.Random(seed)
        self.clients = [
            OpenLoopClient(env, client_id, nodes, rate_per_client, tx_size,
                           rng=random.Random(rng.randrange(2 ** 62)))
            for client_id in range(n_clients)
        ]
        self.env = env

    @classmethod
    def from_clients(cls, env: Environment, clients: Sequence) -> "ClientWorkload":
        """Wrap pre-built clients (open- or closed-loop) as one workload."""
        workload = cls.__new__(cls)
        workload.env = env
        workload.clients = list(clients)
        return workload

    def start(self) -> None:
        """Start every client's submissions."""
        for client in self.clients:
            client.start()

    @property
    def total_submitted(self) -> int:
        """Transactions submitted (and accepted) so far across all clients."""
        return sum(client.submitted_count for client in self.clients)

    @property
    def total_completed(self) -> int:
        """Closed-loop completions observed (0 for open-loop populations)."""
        return sum(getattr(client, "completed", 0) for client in self.clients)
