"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager

import pytest

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.crypto.keys import KeyStore
from repro.net.latency import SingleDatacenterLatency
from repro.net.message import HEAD, Record
from repro.net.network import Network
from repro.scenarios import runner
from repro.sim import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def small_config() -> FireLedgerConfig:
    """The smallest Byzantine-tolerant cluster configuration (n=4, f=1)."""
    return FireLedgerConfig(n_nodes=4, workers=1, batch_size=10, tx_size=512)


def make_network(env: Environment, n_nodes: int = 4, seed: int = 0) -> Network:
    """A single data-center network with a deterministic RNG."""
    return Network(env, n_nodes, latency_model=SingleDatacenterLatency(),
                   rng=random.Random(seed))


class Item(Record):
    """An ad-hoc test message, filed under ``instance`` (and ordered by it
    when it is an int); ``n`` tells copies apart."""

    __slots__ = ()
    KINDS = ("A", "B", "N", "X", "Y", "VOTE", "OLD", "NEW")
    FIELDS = (*HEAD, "n")

    @classmethod
    def of(cls, kind, instance, n=None):
        ordinal = instance if type(instance) is int else None
        return tuple.__new__(cls, (kind, (kind, instance), ordinal, 96, n))


@contextmanager
def gc_paused():
    """Sweep, then pause the cyclic GC for the block (as the benchmark does
    around every timed repeat); its previous state is restored on exit."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: How every scenario row starts (``adversary`` slots in before ``workload``
#: when the fault schedule has Byzantine nodes): identity, then headline.
SCENARIO_ROW_LEAD = (
    "scenario", "protocol", "n", "workers", "batch", "tx_size", "lanes",
    "backend", "workload", "tps", "bps", "latency_p50_ms", "latency_p95_ms",
    "msgs_dropped")


def observe_run_cluster(monkeypatch, on_setup) -> list:
    """Make ``run_scenario`` call ``on_setup(env, network, nodes)`` right
    before the scenario's own setup hook — the way the benchmark harness
    observes a run.  Returns the list its ``ClusterResult``s are appended to.
    """
    run_cluster_ = runner.run_cluster
    results: list = []

    def observed(config, setup=None, **kwargs):
        def chained(env, network, nodes):
            on_setup(env, network, nodes)
            setup(env, network, nodes)
        results.append(run_cluster_(config, setup=chained, **kwargs))
        return results[-1]

    monkeypatch.setattr(runner, "run_cluster", observed)
    return results


@pytest.fixture
def network(env: Environment) -> Network:
    """A 4-node single data-center network."""
    return make_network(env, 4)


@pytest.fixture
def keystore() -> KeyStore:
    """Key pairs for a 4-node cluster."""
    return KeyStore(4)


@pytest.fixture(scope="session")
def cluster_result():
    """Memoizing ``run_cluster`` factory shared across test modules.

    ``cluster_result(seed=7, batch_size=100, ...)`` runs a cluster with the
    small default configuration (n=4, workers=1, batch=10, tx=512; 0.6s run,
    0.1s warmup, seed 3) overridden by the keyword arguments — config fields
    and ``run_cluster`` parameters alike — and caches the result, so test
    modules asserting different properties of the same run share one
    simulation instead of re-running it.  Deliberately session-scoped:
    results are immutable summaries, and determinism tests that need two
    *fresh* runs should call ``run_cluster`` directly.
    """
    run_params = ("protocol", "duration", "warmup", "seed", "latency_model",
                  "faults", "adversary", "latency_trim", "setup", "backend")
    defaults = dict(n_nodes=4, workers=1, batch_size=10, tx_size=512,
                    duration=0.6, warmup=0.1, seed=3)
    cache: dict = {}

    def run(**overrides):
        kwargs = {**defaults, **overrides}
        run_kwargs = {key: kwargs.pop(key) for key in run_params
                      if key in kwargs}
        key = repr(sorted(kwargs.items())) + repr(sorted(run_kwargs.items()))
        if key not in cache:
            cache[key] = run_cluster(FireLedgerConfig(**kwargs), **run_kwargs)
        return cache[key]

    return run
