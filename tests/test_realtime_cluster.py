"""Live acceptance tests: full clusters on the realtime backend.

These run real seconds of wall-clock time over loopback TCP sockets, so the
scenario durations are short; together they pin the PR's acceptance matrix —
every protocol plus multiplexed lanes reaches cross-node state-root
agreement live, with zero protocol-code changes.
"""

from collections import defaultdict

import pytest

from repro.scenarios import library
from repro.scenarios.runner import run_scenario
from tests.conftest import observe_run_cluster


@pytest.mark.parametrize("protocol,lanes", [
    ("fireledger", None),
    ("hotstuff", None),
    ("bftsmart", None),
    ("fireledger", 2),
])
def test_paper_lan_live_reaches_state_agreement(protocol, lanes):
    (row,) = run_scenario(library.get("paper-lan"), protocol=protocol,
                          lanes=lanes, backend="realtime")
    # run_cluster already raised via verify_state_agreement if any two honest
    # nodes disagreed; a non-empty root plus deliveries means work committed
    # and every node executed the same prefix.
    assert row["backend"] == "realtime"
    assert row["tps"] > 0
    assert row["state_root"]
    assert row["state_deliveries"] > 0


def test_rolling_crash_live_survives_socket_teardown():
    """Crash/recover live means sockets actually close and rebind: the
    fault schedule must still leave the surviving nodes in agreement."""
    (row,) = run_scenario(library.get("rolling-crash"), backend="realtime")
    assert row["backend"] == "realtime"
    assert row["state_root"]
    assert row["msgs_dropped"] > 0  # traffic toward crashed nodes died


def test_sim_rows_keep_their_shape():
    """``backend`` is an identity column of every row: a simulated and a
    live run of one spec differ in values, never in columns."""
    (sim,) = run_scenario(library.get("paper-lan"), backend="sim")
    (live,) = run_scenario(library.get("paper-lan"), backend="realtime")
    assert (sim["backend"], live["backend"]) == ("sim", "realtime")
    assert list(sim) == list(live)


def test_calibrate_driver_reports_live_vs_sim_deltas():
    from repro.experiments.calibrate import calibrate_backends

    (row,) = calibrate_backends()
    assert row["scenario"] == "paper-lan"
    assert row["tps_sim"] > 0 and row["tps_live"] > 0
    assert row["tps_ratio"] == pytest.approx(
        row["tps_live"] / row["tps_sim"], rel=1e-2)
    assert row["p50_live_ms"] > 0


def test_a_live_cluster_keeps_one_object_per_transaction(monkeypatch):
    """On the realtime backend, as on the simulator, every node holds the
    one object the client built: across all nodes' chains, received bodies
    and pools there is exactly one ``Transaction`` per distinct digest."""
    with monkeypatch.context() as patch:
        results = observe_run_cluster(patch, lambda *_: None)
        (row,) = run_scenario(library.get("flash-crowd"), backend="realtime")
    assert row["state_root"] and row["state_deliveries"] > 0
    objects = defaultdict(set)
    holders = defaultdict(set)
    for node in results[0].nodes:
        for worker in node.workers:
            held = [transaction for block in worker.chain.blocks
                    for transaction in block.transactions]
            held += [transaction for batch in worker._bodies.values()
                     for transaction in batch.transactions]
            held += worker.txpool._pending
            for transaction in held:
                objects[transaction.payload_digest].add(id(transaction))
                holders[transaction.payload_digest].add(node.node_id)
    assert objects
    assert all(len(ids) == 1 for ids in objects.values())
    # Not vacuous: the data path shipped them to every node.
    assert any(len(nodes) == 4 for nodes in holders.values())
