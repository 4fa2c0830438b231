"""The ``smallbank-sharded`` workload: wire client, shard servers, 2PC.

A :class:`~repro.shard.process.ShardCluster` forks :data:`SHARDS` shard
servers (default shard engine config: history recording and a lock
timeout) with :data:`SHARD_WORKERS` workers each, reached over TCP
through :class:`~repro.shard.backend.RemoteShard` links, behind one
:class:`~repro.shard.coordinator.Coordinator`.  SmallBank is
partitioned so each customer's rows live on one shard.  Two client
threads at ``ssi``: a quarter of transactions are Amalgamates between
customers on different shards (2PC); the rest are the four
one-customer programs, one quarter each (single-shard fast path).
"""

from __future__ import annotations

from repro.shard.partition import smallbank_partition_map
from repro.shard.process import ShardCluster
from repro.workloads import smallbank as sb

from ssibench import checks, harness, layers
from ssibench.harness import ClientStats, Phases
from ssibench.smallbank import (
    Inputs,
    client_rng,
    final_total,
    finish,
    initial_total,
    is_balance,
    program,
)
from ssibench.tracing import SpanTracer

SHARDS = 2
SHARD_WORKERS = 2
THREADS = 2
CUSTOMERS = 2_000
CROSS_RATIO = 0.25
#: the commit rate holds level through a run, so the end-to-end
#: metrics come from the calm windows (see ``harness.end_to_end``)
CALM_ONLY = True
SINGLE_KINDS = ("balance", "deposit_checking", "transact_saving",
                "write_check")
REMOTE_OPS = ("begin", "read", "get", "read_for_update", "write", "commit",
              "abort", "prepare_begin", "commit_prepared_begin")


def draw_sharded(rng, shard_of) -> Inputs:
    amount = float(rng.randint(1, 100))
    if rng.random() < CROSS_RATIO:
        first = rng.randrange(CUSTOMERS)
        other = first
        while shard_of(other) == shard_of(first):
            other = rng.randrange(CUSTOMERS)
        return "amalgamate", first, other, amount
    kind = SINGLE_KINDS[rng.randrange(len(SINGLE_KINDS))]
    first = rng.randrange(CUSTOMERS)
    return kind, first, first, amount


def build() -> ShardCluster:
    cluster = ShardCluster(smallbank_partition_map(SHARDS, CUSTOMERS),
                           workers=SHARD_WORKERS)
    try:
        sb.setup_smallbank(cluster.coordinator, CUSTOMERS)
    except BaseException:
        cluster.close()
        raise
    return cluster


def cluster_marks(cluster: ShardCluster) -> dict:
    coordinator = cluster.coordinator
    marks = layers.add(*(layers.flatten(backend.metrics())
                         for backend in cluster.backends))
    counters = coordinator.metrics.snapshot()["counters"]["coordinator"]
    marks["escalation_conflicts"] = counters["escalation_conflicts"]
    marks["frames_sent"] = sum(backend.link.stats["frames_sent"]
                               for backend in cluster.backends)
    return marks


def trace_cluster(tracer: SpanTracer, cluster: ShardCluster) -> None:
    tracer.call(
        cluster.coordinator, "commit",
        lambda args: ("shard.twopc" if len(args[0].parts) > 1
                      else "shard.single_commit"),
    )
    for backend in cluster.backends:
        for op in REMOTE_OPS:
            tracer.call(backend, op, f"client.{op}")


def run(seed: int, seconds: float, trace: bool) -> dict:
    def measure_and_close(cluster: ShardCluster) -> dict:
        try:
            return measure(cluster, seed, seconds, trace)
        finally:
            cluster.close()

    return harness.run_with_setups(build, ShardCluster.close,
                                   measure_and_close, trace)


def measure(cluster: ShardCluster, seed: int, seconds: float,
            trace: bool) -> dict:
    coordinator = cluster.coordinator
    pmap = cluster.partition_map

    def shard_of(customer: int) -> int:
        return pmap.shard_of(sb.SAVING, customer)

    tracer = SpanTracer() if trace else None
    if tracer is not None:
        trace_cluster(tracer, cluster)
    clients = [ClientStats() for _ in range(THREADS)]
    marks: dict[str, dict] = {}

    def start(phases: Phases):
        bodies = []
        for index, stats in enumerate(clients):
            rng = client_rng(seed, "smallbank-sharded", index)
            bodies.append(lambda rng=rng, stats=stats: harness.closed_loop(
                coordinator, stats, phases,
                lambda: draw_sharded(rng, shard_of), program, is_balance,
            ))
        return harness.start_threads(bodies)

    phases = harness.run_phases(
        start, seconds, tracer,
        on_start=lambda: marks.update(before=cluster_marks(cluster)),
        on_end=lambda: marks.update(after=cluster_marks(cluster)),
    )
    rss = harness.peak_rss_mb(tuple(p.process.pid
                                    for p in cluster.processes))
    total = harness.merge(clients)

    checks.check_merged_history(coordinator)
    checks.check_shard_lock_tables(coordinator)
    checks.check_money(
        final_total(lambda table: checks.committed_rows(coordinator, table)),
        initial_total(CUSTOMERS), total.effects,
    )
    return finish(total, phases, rss, tracer,
                  layers.delta(marks["before"], marks["after"]), {},
                  "smallbank-sharded", seed, CALM_ONLY)
