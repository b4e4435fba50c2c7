"""Tests of configuration validation and the metrics layer."""

import pytest

from repro.core.config import FireLedgerConfig, max_faults
from repro.metrics import MetricsRecorder
from repro.metrics.recorder import (
    EVENT_BLOCK_PROPOSAL,
    EVENT_DEFINITE_DECISION,
    EVENT_FLO_DELIVERY,
    EVENT_HEADER_PROPOSAL,
    EVENT_TENTATIVE_DECISION,
)
from repro.metrics.summary import LatencySummary, percentile


# --------------------------------------------------------------------- config
def test_max_faults_bound():
    assert max_faults(4) == 1
    assert max_faults(7) == 2
    assert max_faults(10) == 3
    assert max_faults(100) == 33
    with pytest.raises(ValueError):
        max_faults(3)


def test_config_defaults_resiliency_from_cluster_size():
    assert FireLedgerConfig(n_nodes=4).f == 1
    assert FireLedgerConfig(n_nodes=10).f == 3
    assert FireLedgerConfig(n_nodes=10).finality_depth == 4


def test_config_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        FireLedgerConfig(n_nodes=3)
    with pytest.raises(ValueError):
        FireLedgerConfig(n_nodes=4, f=2)       # violates f < n/3
    with pytest.raises(ValueError):
        FireLedgerConfig(n_nodes=4, workers=0)
    with pytest.raises(ValueError):
        FireLedgerConfig(n_nodes=4, batch_size=0)
    with pytest.raises(ValueError):
        FireLedgerConfig(n_nodes=4, tx_size=0)


def test_config_with_overrides_returns_new_object():
    base = FireLedgerConfig(n_nodes=4)
    tweaked = base.with_overrides(workers=5, batch_size=77)
    assert tweaked.workers == 5
    assert tweaked.batch_size == 77
    assert base.workers == 1


def test_paper_resiliency_bound_allows_f_below_n_over_3():
    config = FireLedgerConfig(n_nodes=16, f=4)
    assert config.f == 4


# -------------------------------------------------------------------- metrics
def make_recorder_with_blocks():
    recorder = MetricsRecorder(node_id=0)
    recorder.measure_start = 0.0
    for round_number in range(5):
        base = 0.1 * round_number
        recorder.record_event(0, round_number, EVENT_BLOCK_PROPOSAL, base, tx_count=10)
        recorder.record_event(0, round_number, EVENT_HEADER_PROPOSAL, base + 0.01)
        recorder.record_event(0, round_number, EVENT_TENTATIVE_DECISION, base + 0.02)
        recorder.record_event(0, round_number, EVENT_DEFINITE_DECISION, base + 0.05)
        recorder.record_event(0, round_number, EVENT_FLO_DELIVERY, base + 0.06)
    return recorder


def test_recorder_throughput():
    recorder = make_recorder_with_blocks()
    assert recorder.throughput_tps(end_time=1.0) == pytest.approx(50.0)
    assert recorder.throughput_bps(end_time=1.0) == pytest.approx(5.0)


def test_recorder_window_excludes_warmup():
    recorder = make_recorder_with_blocks()
    recorder.measure_start = 0.25
    tps = recorder.throughput_tps(end_time=1.0)
    assert tps == pytest.approx(3 * 10 / 0.75)


def test_recorder_latency_and_breakdown():
    recorder = make_recorder_with_blocks()
    samples = recorder.latency_samples(end_time=1.0)
    assert len(samples) == 5
    assert all(s == pytest.approx(0.06) for s in samples)
    breakdown = recorder.breakdown(end_time=1.0)
    assert breakdown["A->B"] == pytest.approx(0.01)
    assert breakdown["D->E"] == pytest.approx(0.01)


def test_recorder_discard_block():
    recorder = make_recorder_with_blocks()
    recorder.discard_block(0, 2)
    assert recorder.throughput_bps(end_time=1.0) == pytest.approx(4.0)


def test_recorder_rejects_unknown_event():
    recorder = MetricsRecorder(0)
    with pytest.raises(ValueError):
        recorder.record_event(0, 0, "Z", 0.0)


def test_recorder_recoveries_per_second():
    recorder = MetricsRecorder(0)
    recorder.record_recovery(0.2)
    recorder.record_recovery(0.7)
    assert recorder.recoveries_per_second(end_time=2.0) == pytest.approx(1.0)


def test_percentile_and_cdf():
    data = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 50) == 3.0
    assert percentile(data, 100) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    # The inverse of the empirical CDF: one sample per quartile step.
    assert [percentile(data, q) for q in (0, 25, 50, 75, 100)] == data


def test_latency_summary_trimming():
    samples = [0.01] * 95 + [10.0] * 5
    trimmed = LatencySummary.from_samples(samples, trim_extreme_fraction=0.05)
    untrimmed = LatencySummary.from_samples(samples)
    assert trimmed.mean < untrimmed.mean
    assert trimmed.samples == 95


def test_throughput_summary_average():
    """A cluster's rates are the average over its nodes (the one fold)."""
    from repro.metrics import NodeMetrics

    average = NodeMetrics.combine([NodeMetrics(tps=100, bps=1),
                                   NodeMetrics(tps=300, bps=3)], average=True)
    assert average.tps == 200
    assert average.bps == 2
    empty = NodeMetrics.combine([], average=True)
    assert empty.tps == 0
