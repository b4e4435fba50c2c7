"""Per-node metrics recorder.

The paper instruments every round with five events (Section 7.2.2):

* **A** block proposal (the proposer assembled and disseminated the body),
* **B** header proposal (the header entered the consensus path),
* **C** tentative decision (the block was appended to the local chain),
* **D** definite decision (the block reached depth ``f + 2``),
* **E** delivery by FLO (the round-robin merge released it to clients).

The recorder is the one thing a protocol reports to: it stores these
timestamps per (worker, round) plus the protocol's named counters, and the
summary helpers turn them into the tps/bps/latency/breakdown numbers each
figure reports.  A leader-driven baseline stamps A (the leader's proposal
time), C (its commit) and E (the delivery that follows at once).

Window rule: *a measurement belongs to the window in which it completes*
(:meth:`MetricsRecorder._in_window`, the only membership test) — an event
count by the event's own timestamp, an A→E latency sample and its histogram
fold by E, a stage span X→Y by Y.  The named counters are the exception by
contract: whole-run totals, because Table 1 divides them by each other.

Memory model: by default every :class:`BlockRecord` is kept for the whole run
(exact percentiles, the figure drivers' mode); slotted, one is 291 B with its
five events (340 B with a ``__dict__``).  A decided round also keeps its block
and, if fast-decided, a three-int ``core/fireledger.py::FastCertificate`` (an
n - f entry vote dict before: 1 345 B at n = 32).  With ``horizon_rounds`` set,
the recorder *streams*: a record is folded into windowed aggregates — per-
event counters/transaction totals, per-span sums for the breakdown, and a
fixed-bin :class:`~repro.metrics.summary.LatencyHistogram` for the A→E span —
as soon as its E event arrives, or once its round falls ``horizon_rounds``
behind its worker's newest round.  Live state is then O(horizon), not O(run
length), and every summary method transparently combines the folded
aggregates with the still-live records.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.metrics.summary import LatencyHistogram

EVENT_BLOCK_PROPOSAL = "A"
EVENT_HEADER_PROPOSAL = "B"
EVENT_TENTATIVE_DECISION = "C"
EVENT_DEFINITE_DECISION = "D"
EVENT_FLO_DELIVERY = "E"
BLOCK_EVENTS = (
    EVENT_BLOCK_PROPOSAL,
    EVENT_HEADER_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
    EVENT_DEFINITE_DECISION,
    EVENT_FLO_DELIVERY,
)
#: The stage spans of the breakdown: ``("A->B", "A", "B")`` ... in round order.
_STAGES = tuple((f"{start}->{end}", start, end)
                for start, end in zip(BLOCK_EVENTS[:-1], BLOCK_EVENTS[1:]))


def stale_fold_grace(horizon_rounds: int) -> int:
    """Rounds a decided-but-undelivered record may lag before stale-folding.

    Head-of-line-blocked records (C without E) get this grace instead of the
    plain horizon; shared with the CI soak smoke's live-record bound.
    """
    return max(4 * horizon_rounds, horizon_rounds + 16)


@dataclass(slots=True)
class BlockRecord:
    """Timestamps and size of one (worker, round) block at one node."""

    worker_id: int
    round_number: int
    tx_count: int = 0
    #: Whether ``tx_count`` has been set by an event (first writer wins).
    tx_count_known: bool = False
    #: Streaming mode: this record was re-created by a straggler event after
    #: its round had already been stale-folded (it must not be counted as a
    #: fresh record when folded again).
    refold: bool = False
    events: dict = field(default_factory=dict)


class MetricsRecorder:
    """Collects protocol events for one node.

    ``horizon_rounds=None`` keeps every block record (exact mode);
    ``horizon_rounds=k`` enables streaming: records are folded into bounded
    aggregates on their E event or once ``k`` rounds stale.  ``counters``
    names the counters the owning protocol reports, so that one it never
    bumps still shows in a result row as zero.
    """

    def __init__(self, node_id: int, horizon_rounds: Optional[int] = None,
                 counters: Iterable[str] = ()) -> None:
        if horizon_rounds is not None and horizon_rounds < 0:
            raise ValueError("horizon_rounds must be >= 0 (or None)")
        self.node_id = node_id
        self.horizon_rounds = horizon_rounds
        self._blocks: dict[tuple[int, int], BlockRecord] = {}
        #: Named counters, bumped through :meth:`count`.  Whole-run totals by
        #: contract — never windowed: Table 1 divides them by each other
        #: (signatures per round), which holds only over one common span.
        self.counters: dict[str, float] = dict.fromkeys(counters, 0)
        self._recoveries_in_window = 0
        #: Measured window: ``[measure_start, end_time]``, ``end_time`` being
        #: the run's end, which every summary method takes as an argument.
        #: Set before the run starts (streaming folds test against it as
        #: they happen) and by nothing but ``run_cluster``.
        self.measure_start: float = 0.0
        # --- streaming aggregates (populated only when horizon_rounds set) ---
        self.records_folded = 0
        #: Stale folds that later saw their E event (their A->E latency
        #: sample is lost; nonzero means the horizon was too tight for the
        #: run's head-of-line blocking).
        self.late_deliveries = 0
        self._newest_round: dict[int, int] = {}
        self._stale_folded_through: dict[int, int] = {}
        self._folded_event_count: dict[str, int] = defaultdict(int)
        self._folded_event_tx: dict[str, int] = defaultdict(int)
        self._folded_pair_sums: dict[str, float] = defaultdict(float)
        self._folded_pair_counts: dict[str, int] = defaultdict(int)
        self._folded_latency: Optional[LatencyHistogram] = None

    @property
    def streaming(self) -> bool:
        """Whether bounded-memory streaming mode is enabled."""
        return self.horizon_rounds is not None

    @property
    def live_records(self) -> int:
        """Block records currently held in memory."""
        return len(self._blocks)

    # ---------------------------------------------------------------- events
    def _record(self, worker_id: int, round_number: int) -> BlockRecord:
        key = (worker_id, round_number)
        record = self._blocks.get(key)
        if record is None:
            record = BlockRecord(worker_id, round_number)
            if (self.streaming and round_number
                    <= self._stale_folded_through.get(worker_id, -1)):
                record.refold = True
            self._blocks[key] = record
            if self.streaming:
                newest = self._newest_round.get(worker_id, -1)
                if round_number > newest:
                    self._newest_round[worker_id] = round_number
                    self._fold_stale()
        return record

    def record_event(self, worker_id: int, round_number: int, event: str,
                     time: float, tx_count: Optional[int] = None) -> None:
        """Record one of the A..E events for a block.

        Timestamps are first-write-wins (a re-delivered event never moves an
        already-recorded time) and so is ``tx_count``: the first event that
        reports a transaction count pins it, so a later event re-reporting
        (e.g. E after a recovery re-delivered a different body size estimate)
        cannot silently rewrite the round's accounting.
        """
        if event not in BLOCK_EVENTS:
            raise ValueError(f"unknown event {event!r}")
        record = self._record(worker_id, round_number)
        record.events.setdefault(event, time)
        if tx_count is not None and not record.tx_count_known:
            record.tx_count = tx_count
            record.tx_count_known = True
        if self.streaming and event == EVENT_FLO_DELIVERY:
            self._fold(self._blocks.pop((worker_id, round_number)))

    def on_delivery(self, delivery) -> None:
        """Delivery-stream consumer: record the block's E (release) event.

        Subscribed to a node's :class:`~repro.ledger.delivery.DeliveryStream`,
        so the recorder observes releases through the same seam as the
        execution layer instead of a hand-placed ``record_event`` call inside
        the protocol's merge loop.  ``delivery.source``/``delivery.sequence``
        carry the (worker, round) provenance the A..D events were recorded
        under.
        """
        self.record_event(delivery.source, delivery.sequence,
                          EVENT_FLO_DELIVERY, delivery.time,
                          tx_count=delivery.tx_count)

    def discard_block(self, worker_id: int, round_number: int) -> None:
        """Forget a block rescinded by recovery (it never counts as decided)."""
        self._blocks.pop((worker_id, round_number), None)

    def count(self, name: str, n: int = 1) -> None:
        """Bump the whole-run counter ``name`` (declared or not: declaring
        only makes a counter that is never bumped show as zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record_recovery(self, time: float) -> None:
        """Count one invocation of the recovery procedure."""
        self.count("recoveries")
        if self._in_window(time):
            self._recoveries_in_window += 1

    def record_round_outcome(self, fast_path: bool, delivered: bool) -> None:
        """Track how each WRB round completed (for Table 1 accounting)."""
        if not delivered:
            self.count("failed_rounds")
        elif fast_path:
            self.count("fast_path_rounds")
        else:
            self.count("fallback_rounds")

    # ------------------------------------------------------------- streaming
    def _fold_stale(self) -> None:
        """Fold records that fell out of the per-worker round horizon.

        A record that was tentatively decided (C) but not yet delivered (E)
        is head-of-line blocked behind another worker in FLO's round-robin
        merge — its E is still coming, so it gets four horizons of grace
        before the bounded-memory escape hatch folds it anyway (losing its
        A->E latency sample; counted in :attr:`late_deliveries` when the E
        eventually lands).
        """
        horizon = self.horizon_rounds or 0
        stale = []
        for key, record in self._blocks.items():
            lag = (self._newest_round.get(record.worker_id, -1)
                   - record.round_number)
            if lag <= horizon:
                continue
            if (EVENT_TENTATIVE_DECISION in record.events
                    and EVENT_FLO_DELIVERY not in record.events
                    and lag <= stale_fold_grace(horizon)):
                continue
            stale.append(key)
        for key in stale:
            record = self._blocks.pop(key)
            worker_id = record.worker_id
            self._stale_folded_through[worker_id] = max(
                self._stale_folded_through.get(worker_id, -1),
                record.round_number)
            self._fold(record)

    def _fold(self, record: BlockRecord) -> None:
        """Stream one record into the bounded aggregates and drop it.

        A re-created record (``refold``: its round was already stale-folded
        once) does not count as a fresh record again; if it carries the late
        E, that is tracked in :attr:`late_deliveries` — the straggler's
        tx/count still enter the window, only its A->E sample was lost.
        """
        if record.refold:
            if EVENT_FLO_DELIVERY in record.events:
                self.late_deliveries += 1
        else:
            self.records_folded += 1
        for event, timestamp in record.events.items():
            if self._in_window(timestamp):
                self._folded_event_count[event] += 1
                self._folded_event_tx[event] += record.tx_count
        for key, span in self._stage_spans(record):
            self._folded_pair_sums[key] += span
            self._folded_pair_counts[key] += 1
        span = self._span(record, EVENT_BLOCK_PROPOSAL, EVENT_FLO_DELIVERY)
        if span is not None:
            if self._folded_latency is None:
                self._folded_latency = LatencyHistogram()
            self._folded_latency.add(span)

    @property
    def latency_histogram(self) -> Optional[LatencyHistogram]:
        """Folded A→E latency distribution (None unless streaming folded any)."""
        return self._folded_latency

    # -------------------------------------------------------------- summaries
    @property
    def blocks(self) -> tuple[BlockRecord, ...]:
        """All *live* (unfolded) block records."""
        return tuple(self._blocks.values())

    def _window(self, end_time: float) -> float:
        return max(end_time - self.measure_start, 1e-9)

    def _in_window(self, timestamp: float, end_time: float = math.inf) -> bool:
        """The window rule (both edges inclusive).  A streaming fold happens
        mid-run, before any ``end_time`` exists, and tests the open window."""
        return self.measure_start <= timestamp <= end_time

    def _span(self, record: BlockRecord, start_event: str, end_event: str,
              end_time: float = math.inf) -> Optional[float]:
        """``start_event``→``end_event`` time of ``record`` if both were seen
        and the span completed (its end event fell) inside the window."""
        events = record.events
        if (start_event in events and end_event in events
                and self._in_window(events[end_event], end_time)):
            return events[end_event] - events[start_event]
        return None

    def _stage_spans(self, record: BlockRecord, end_time: float = math.inf
                     ) -> Iterator[tuple[str, float]]:
        """``record``'s in-window consecutive-event spans, keyed ``"X->Y"``."""
        for key, start_event, end_event in _STAGES:
            span = self._span(record, start_event, end_event, end_time)
            if span is not None and span >= 0:
                yield key, span

    def blocks_with_event(self, event: str, end_time: float) -> list[BlockRecord]:
        """Live records whose ``event`` timestamp falls in the window."""
        return [record for record in self._blocks.values()
                if event in record.events
                and self._in_window(record.events[event], end_time)]

    def count_with_event(self, event: str, end_time: float) -> int:
        """In-window blocks with ``event``, live + folded."""
        return (len(self.blocks_with_event(event, end_time))
                + self._folded_event_count.get(event, 0))

    def tx_with_event(self, event: str, end_time: float) -> int:
        """In-window transaction total at ``event``, live + folded."""
        live = sum(record.tx_count
                   for record in self.blocks_with_event(event, end_time))
        return live + self._folded_event_tx.get(event, 0)

    def throughput_tps(self, end_time: float,
                       event: str = EVENT_FLO_DELIVERY) -> float:
        """Transactions per second counted at ``event``."""
        return self.tx_with_event(event, end_time) / self._window(end_time)

    def throughput_bps(self, end_time: float,
                       event: str = EVENT_TENTATIVE_DECISION) -> float:
        """Blocks per second counted at ``event``."""
        return self.count_with_event(event, end_time) / self._window(end_time)

    def recoveries_per_second(self, end_time: float) -> float:
        """In-window recovery invocations per second (counted as they are
        recorded, like a streaming fold)."""
        return self._recoveries_in_window / self._window(end_time)

    def latency_samples(self, end_time: float) -> list[float]:
        """In-window per-block A→E latencies (live records only).

        In streaming mode the folded share of the distribution lives in
        :attr:`latency_histogram`; combine both for a full summary.
        """
        spans = (self._span(record, EVENT_BLOCK_PROPOSAL, EVENT_FLO_DELIVERY,
                            end_time)
                 for record in self._blocks.values())
        return [span for span in spans if span is not None]

    def breakdown(self, end_time: float) -> dict[str, float]:
        """Mean in-window time between consecutive events (the Figure 9
        heatmap rows), live + folded."""
        sums: dict[str, float] = defaultdict(float, self._folded_pair_sums)
        counts: dict[str, int] = defaultdict(int, self._folded_pair_counts)
        for record in self._blocks.values():
            for key, span in self._stage_spans(record, end_time):
                sums[key] += span
                counts[key] += 1
        return {key: sums[key] / counts[key] for key, _, _ in _STAGES
                if key in sums}


@dataclass
class NodeMetrics:
    """One node's contribution to the aggregated cluster result.

    ``tps``/``bps``/``recoveries_per_second`` are rates over the node's
    measurement window.  ``latency_samples`` are per-block commit latencies in
    seconds.  The three dicts all end up in ``ClusterResult.breakdown`` but
    aggregate differently (:meth:`combine`):

    * ``stage_breakdown`` — per-round stage timings (FireLedger's ``A->B`` ...
      ``D->E`` spans), averaged per key;
    * ``totals`` — cluster-wide counters (round outcomes, recoveries, skipped
      views, signature counts), summed per key;
    * ``means`` — per-node quantities that every correct node observes
      identically (a baseline's committed block/transaction counts), averaged
      per key across nodes.
    """

    tps: float = 0.0
    bps: float = 0.0
    recoveries_per_second: float = 0.0
    latency_samples: list[float] = field(default_factory=list)
    #: Folded share of the latency distribution when the node's recorder ran
    #: in streaming (bounded-memory) mode; merged with every node's raw
    #: samples into one histogram-backed cluster summary.
    latency_histogram: Optional[LatencyHistogram] = None
    stage_breakdown: dict[str, float] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_recorder(cls, recorder: MetricsRecorder,
                      duration: float) -> "NodeMetrics":
        """Summarise one recorder over its measurement window.

        The one fold of recorder data: transactions count where they are
        released (E), blocks where they are decided (C), and the recorder's
        counters are the ``totals``.  A node's ``metrics`` adds only *state
        read at the end of the run* (a pool's rejection figure) on top —
        anything that is an event goes through the recorder.
        """
        return cls(
            tps=recorder.throughput_tps(duration, event=EVENT_FLO_DELIVERY),
            bps=recorder.throughput_bps(duration,
                                        event=EVENT_TENTATIVE_DECISION),
            recoveries_per_second=recorder.recoveries_per_second(duration),
            latency_samples=recorder.latency_samples(duration),
            latency_histogram=recorder.latency_histogram,
            stage_breakdown=recorder.breakdown(duration),
            totals=dict(recorder.counters),
            means={
                "blocks_committed": recorder.count_with_event(
                    EVENT_TENTATIVE_DECISION, duration),
                "transactions_committed": recorder.tx_with_event(
                    EVENT_FLO_DELIVERY, duration),
            })

    @classmethod
    def combine(cls, parts: "Iterable[NodeMetrics]",
                average: bool) -> "NodeMetrics":
        """Fold several ``NodeMetrics`` into one — the only such fold.

        ``average=True`` folds the correct nodes of a cluster (the paper
        reports every number "averaged over nodes"): rates and ``means``
        average.  ``average=False`` folds the lanes of one node, which are
        parallel pipelines: rates and ``means`` add.  Either way
        ``stage_breakdown`` spans average per key over the parts reporting
        the key (they describe one protocol round, whoever ran it),
        ``totals`` sum, raw latency samples concatenate and the parts'
        histograms merge into a fresh one (None when no part streamed).
        Every sum adds its terms in ``parts`` order, so a result is a pure
        function of the run, not of the interpreter's ``sum``.
        """
        merged = cls()
        count = 0
        stage_counts: dict[str, int] = {}
        mean_counts: dict[str, int] = {}
        for part in parts:
            count += 1
            merged.tps += part.tps
            merged.bps += part.bps
            merged.recoveries_per_second += part.recoveries_per_second
            merged.latency_samples.extend(part.latency_samples)
            if part.latency_histogram is not None:
                if merged.latency_histogram is None:
                    merged.latency_histogram = LatencyHistogram(
                        bin_width=part.latency_histogram.bin_width)
                merged.latency_histogram.merge(part.latency_histogram)
            for key, value in part.stage_breakdown.items():
                merged.stage_breakdown[key] = (
                    merged.stage_breakdown.get(key, 0.0) + value)
                stage_counts[key] = stage_counts.get(key, 0) + 1
            for key, value in part.totals.items():
                merged.totals[key] = merged.totals.get(key, 0.0) + value
            for key, value in part.means.items():
                merged.means[key] = merged.means.get(key, 0.0) + value
                mean_counts[key] = mean_counts.get(key, 0) + 1
        for key, reporting in stage_counts.items():
            merged.stage_breakdown[key] /= reporting
        if average and count:
            merged.tps /= count
            merged.bps /= count
            merged.recoveries_per_second /= count
            for key, reporting in mean_counts.items():
                merged.means[key] /= reporting
        return merged
