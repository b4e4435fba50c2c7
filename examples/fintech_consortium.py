"""A permissioned consortium ledger serving explicit client traffic.

The paper motivates FireLedger with FinTech consortia (e.g. insurance
companies maintaining a shared ledger of policies and claims).  This example
builds a geo-distributed 7-node cluster, attaches a population of open-loop
clients that submit write requests, and tracks how many client transactions
were ordered and delivered — no synthetic filler, only real client load.

Run with::

    python examples/fintech_consortium.py
"""

import random

from repro.core.config import FireLedgerConfig
from repro.core.flo import FLONode
from repro.crypto.keys import KeyStore
from repro.experiments import ExperimentScale, format_rows, registry
from repro.net.latency import GeoDistributedLatency
from repro.net.network import Network
from repro.sim import Environment
from repro.workload import ClientWorkload


def main() -> None:
    config = FireLedgerConfig(
        n_nodes=7,
        workers=2,
        batch_size=200,
        tx_size=1024,        # richer business records than a payment
        fill_blocks=False,   # order only what clients actually submit
    )

    env = Environment()
    network = Network(env, config.n_nodes, latency_model=GeoDistributedLatency(),
                      machine=config.machine, rng=random.Random(1))
    keystore = KeyStore(config.n_nodes)
    nodes = [FLONode(env, network, node_id, config, keystore,
                     rng=random.Random(node_id))
             for node_id in range(config.n_nodes)]
    for node in nodes:
        node.start()

    # 40 branch offices, each issuing ~50 policies/claims per second.
    workload = ClientWorkload(env, nodes, n_clients=40, rate_per_client=50,
                              tx_size=config.tx_size, seed=7)
    workload.start()

    env.run(until=4.0)

    submitted = workload.total_submitted
    delivered = max(node.delivered_transactions for node in nodes)
    heights = [node.workers[0].chain.definite_height for node in nodes]
    print("Geo-distributed consortium ledger (7 institutions, 2 workers each)")
    print(f"  client requests submitted : {submitted:,}")
    print(f"  requests ordered+final    : {delivered:,} "
          f"({100.0 * delivered / max(submitted, 1):.1f}% of submitted)")
    print(f"  definite chain heights    : {heights}")
    recoveries = sum(node.recorder.counters["recoveries"] for node in nodes)
    print(f"  recoveries                : {recoveries} "
          f"(expected 0 — nobody misbehaved)")

    # The saturated-geo-throughput version of this deployment is Figure 14;
    # run one point through the registry (the CLI records the same thing with
    # `python -m repro run fig14 --scale quick`).
    spec = registry.get("fig14")
    rows = spec.run(ExperimentScale(duration=0.4, warmup=0.1,
                                    workers_sweep=(2,), cluster_sizes=(7,),
                                    batch_sizes=(200,), tx_sizes=(1024,)))
    print(f"\n{spec.title} (registry driver, this deployment's shape):")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
