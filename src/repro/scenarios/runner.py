"""Execute a :class:`~repro.scenarios.spec.ScenarioSpec` on the simulator.

The runner translates the declarative spec into the concrete knobs of
:func:`~repro.core.cluster.run_cluster`: protocol -> a name of the
:mod:`repro.protocols` table, topology -> latency
model, workload -> ``fill_blocks`` / client population, fault schedule ->
``faults=`` (plus the spec's adversary bound to its Byzantine membership).
It returns plain result-row dicts, so scenarios plug into the experiment
registry, the sweep engine and the report renderer like the figure drivers —
and every row has the one shape :func:`run_scenario` documents, for any
protocol, lane count, backend and adversary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.cluster import run_cluster
from repro.core.config import FireLedgerConfig
from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # imported lazily at run time to avoid a registry cycle
    from repro.experiments.harness import ExperimentScale


def run_scenario(spec: ScenarioSpec,
                 scale: "Optional[ExperimentScale]" = None,
                 seed: Optional[int] = None,
                 backend: Optional[str] = None,
                 **overrides) -> list[dict]:
    """Run one scenario; returns one result row (as a single-item list).

    ``overrides`` replace ``ScenarioSpec`` fields by name — ``n_nodes`` /
    ``workers`` / ``protocol`` / ``lanes`` / ``adversary`` is how the
    registry's sweep axes reach a scenario (a block takes its shorthand:
    ``lanes=4``, ``adversary="churn"``); ``None`` means "not overridden".
    ``seed`` defaults to the scale's seed.  Durations come from the spec,
    not the scale — fault phase times are absolute simulated seconds, so
    shrinking the run would silently skip scheduled faults.

    ``adversary`` names a registered :mod:`repro.adversary` strategy for
    the spec's Byzantine nodes (inert without any).  ``backend`` selects the
    Environment/Network pair (``"sim"`` default, ``"realtime"`` for the live
    asyncio/TCP runtime); fault phase times then mean real seconds.

    **The row contract** — the same for every protocol, lane count, backend
    and adversary, in this order:

    1. identity: ``scenario``, then every axis column (``protocol``, ``n``,
       ``workers``, ``batch``, ``tx_size``, ``lanes``, ``backend``), and
       ``adversary`` exactly when the fault schedule has Byzantine nodes
       (the rule :meth:`ScenarioSpec.summary` uses); then ``workload``;
    2. the headline numbers ``tps``, ``bps``, ``latency_p50_ms``,
       ``latency_p95_ms``, and ``msgs_dropped``;
    3. every ``ClusterResult.breakdown`` counter the run produced, under its
       breakdown name, sorted, ``round(value, 3)`` (the fold's sums and means
       are floats: ``2182.0``) — round outcomes, ``signatures``,
       ``blocks_committed``, ``adversary_*``, ``lane_skew``, execution and
       fairness counters alike; only the ``->`` stage spans (Figure 9's
       business) stay out;
    4. with execution on, the agreed ``state_root`` / ``state_deliveries``;
       with retention on, FLO's live-state watermarks; with clients, the
       workload's ``submitted_tx`` / ``completed_req``.
    """
    if scale is None:
        # Local import: repro.experiments pulls in the registry, which in
        # turn imports this package to register the scenario library.
        from repro.experiments.harness import ExperimentScale
        scale = ExperimentScale()
    overrides = {name: value for name, value in overrides.items()
                 if value is not None}
    if overrides:
        spec = spec.with_overrides(**overrides)  # re-validates fault node ids
    seed = scale.seed if seed is None else seed

    config_kwargs = dict(
        n_nodes=spec.n_nodes, workers=spec.workers,
        batch_size=spec.batch_size, tx_size=spec.tx_size,
        fill_blocks=spec.workload.fill_blocks,
        execute_transactions=spec.execution.enabled,
        execution_accounts=spec.execution.n_accounts,
        execution_initial_balance=spec.execution.initial_balance,
        retention_rounds=spec.retention.chain_rounds,
        pool_max_pending=spec.pool.max_pending,
        lanes=spec.lanes.count)
    config_kwargs.update(spec.config_overrides)
    config = FireLedgerConfig(**config_kwargs)

    schedule = spec.faults
    workload_box: list = []

    def _setup(env, network, nodes) -> None:
        # Clients avoid known-Byzantine endpoints: under the baselines those
        # replicas are silent (fail-stop model) and would never advance a
        # closed-loop client's delivered_transactions counter.
        byzantine = schedule.byzantine_nodes
        targets = [node for node in nodes if node.node_id not in byzantine]
        workload = spec.workload.build(env, targets or nodes, seed=seed,
                                       execution=spec.execution)
        if workload is not None:
            workload_box.append(workload)

    backend = backend or "sim"
    # Bind the spec's adversary to the fault schedule's membership and timed
    # windows; None without Byzantine nodes (the strategy would be inert).
    strategy = None
    if schedule.byzantine_nodes:
        strategy = spec.adversary.build(schedule.byzantine_nodes,
                                        windows=schedule.byzantine_windows())
    result = run_cluster(
        config,
        protocol=spec.protocol,
        duration=spec.duration,
        warmup=spec.warmup,
        seed=seed,
        latency_model=spec.topology.build(spec.n_nodes),
        faults=schedule,
        adversary=strategy,
        setup=_setup,
        backend=backend,
    )

    row = {
        "scenario": spec.name,
        "protocol": spec.protocol,
        "n": spec.n_nodes,
        "workers": spec.workers,
        "batch": spec.batch_size,
        "tx_size": spec.workload.tx_size if not spec.workload.fill_blocks else spec.tx_size,
        "lanes": spec.lanes.count,
        "backend": backend,
    }
    if strategy is not None:
        row["adversary"] = spec.adversary.strategy
    row.update({
        "workload": spec.workload.shape,
        "tps": round(result.tps, 1),
        "bps": round(result.bps, 2),
        "latency_p50_ms": round(result.latency.p50 * 1000, 1),
        "latency_p95_ms": round(result.latency.p95 * 1000, 1),
        "msgs_dropped": result.network.messages_dropped,
    })
    for key, value in sorted(result.breakdown.items()):
        if "->" not in key:
            row[key] = round(value, 3)
    if spec.execution.enabled:
        # The agreed common-prefix root (the oracle already raised if any two
        # honest nodes disagreed).
        row["state_root"] = (result.state_root or "")[:12]
        row["state_deliveries"] = result.state_deliveries
    if spec.retention.bounded and spec.protocol == "fireledger":
        # Live-state watermarks for the soak/memfootprint accounting: the
        # largest per-worker live chain and per-node live record counts at
        # run end, which the retention window must bound.  Only FLO nodes
        # keep chains (a baseline replica has a recorder and no chain); lanes
        # > 1 wraps each in a MultiplexedNode, unwrapped for the inner view.
        flo_nodes = [inner for node in result.nodes
                     for inner in getattr(node, "lanes", [node])]
        workers = [worker for node in flo_nodes for worker in node.workers]
        row["live_blocks"] = max(len(worker.chain) for worker in workers)
        row["live_records"] = max(
            node.recorder.live_records for node in flo_nodes)
        row["pruned_blocks"] = max(
            worker.chain.summary.blocks for worker in workers)
    if workload_box:
        workload = workload_box[0]
        row["submitted_tx"] = workload.total_submitted
        completed = workload.total_completed
        if completed:
            row["completed_req"] = completed
    return [row]
