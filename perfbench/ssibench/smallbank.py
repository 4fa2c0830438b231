"""The ``smallbank`` workload, and the pieces the other SmallBank
workloads share: input generation, programs, the money total and the
engine tracer hooks.

Two threads drive the uniform SmallBank mix (Balance, DepositChecking,
TransactSaving, Amalgamate, WriteCheck, one fifth each) at ``ssi``
against an in-process :class:`~repro.engine.database.Database` with
engine defaults, plus history recording for the MVSG check.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.workloads import smallbank as sb

from ssibench import checks, harness, layers
from ssibench.harness import ClientStats, Phases
from ssibench.tracing import SpanTracer

THREADS = 2
CUSTOMERS = 10_000
#: the commit rate holds level through a run, so the end-to-end
#: metrics come from the calm windows (see ``harness.end_to_end``)
CALM_ONLY = True
#: each customer starts with this much in Saving and in Checking
OPENING_BALANCE = 1000.0

KINDS = ("balance", "deposit_checking", "transact_saving", "amalgamate",
         "write_check")

# A drawn transaction: (kind, customer, other customer, amount).
Inputs = tuple[str, int, int, float]


def client_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def draw(rng: random.Random, customers: int) -> Inputs:
    """One uniform-mix SmallBank transaction.  Amalgamate's two
    customers are distinct: moving a customer's funds to themself
    destroys them in this program (see the README)."""
    kind = KINDS[rng.randrange(len(KINDS))]
    first = rng.randrange(customers)
    amount = float(rng.randint(1, 100))
    other = first
    if kind == "amalgamate":
        while other == first:
            other = rng.randrange(customers)
    return kind, first, other, amount


def program(inputs: Inputs):
    kind, first, other, amount = inputs
    name = sb.customer_name(first)
    if kind == "balance":
        return sb.balance(name)
    if kind == "deposit_checking":
        return sb.deposit_checking(name, amount)
    if kind == "transact_saving":
        return sb.transact_saving(name, amount)
    if kind == "amalgamate":
        return sb.amalgamate(name, sb.customer_name(other))
    return sb.write_check(name, amount)


def initial_total(customers: int) -> float:
    return 2 * OPENING_BALANCE * customers


def final_total(read_rows: Callable[[str], dict]) -> float:
    return (sum(read_rows(sb.SAVING).values())
            + sum(read_rows(sb.CHECKING).values()))


def is_balance(inputs: Inputs) -> bool:
    """Balance is the mix's one read-only transaction."""
    return inputs[0] == "balance"


def trace_database(tracer: SpanTracer, db: Database,
                   tables: tuple[str, ...] = ()) -> None:
    """Register the engine entry points of ``db`` with ``tracer``."""
    for op in ("begin", "read", "get", "read_for_update", "write", "insert",
               "delete", "scan", "scan_prefix", "index_lookup", "index_scan",
               "abort"):
        tracer.call(db, op, f"engine.{op}")
    tracer.resumable(db, "commit", "engine.commit")
    tracer.call(db, "vacuum", "storage.vacuum")
    for op in ("acquire", "acquire_read_batch", "acquire_coarse_sireads"):
        tracer.call(db.locks, op, "locking.acquire")
    # One policy object per isolation level; the engine reaches the
    # commit-time check through txn.policy, i.e. through these objects.
    for policy in set(db._policies.values()):
        tracer.call(policy, "before_commit", "cc.certify")
    for name in tables:
        tracer.generator(db.table(name), "scan_chunks", "storage.scan_chunks")


class PeakGauges:
    """Lock-table gauges sampled between transactions (traced run)."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.table = 0
        self.siread = 0

    def sample(self) -> None:
        locks = self.db.locks
        self.table = max(self.table, locks.table_size())
        self.siread = max(self.siread, locks.siread_lock_count())

    def metrics(self) -> dict:
        return {"locking.peak_table_size": self.table,
                "locking.peak_siread_locks": self.siread}


def build() -> Database:
    db = Database(EngineConfig(record_history=True))
    sb.setup_smallbank(db, CUSTOMERS)
    return db


def run(seed: int, seconds: float, trace: bool) -> dict:
    return harness.run_with_setups(
        build, lambda _db: None,
        lambda db: measure(db, seed, seconds, trace), trace)


def measure(db: Database, seed: int, seconds: float, trace: bool) -> dict:
    tracer = SpanTracer() if trace else None
    gauges = PeakGauges(db)
    if tracer is not None:
        trace_database(tracer, db)
    clients = [ClientStats() for _ in range(THREADS)]
    marks: dict[str, dict] = {}

    def start(phases: Phases):
        bodies = []
        for index, stats in enumerate(clients):
            rng = client_rng(seed, "smallbank", index)
            bodies.append(lambda rng=rng, stats=stats: harness.closed_loop(
                db, stats, phases, lambda: draw(rng, CUSTOMERS), program,
                is_balance, after_txn=gauges.sample if trace else None,
            ))
        return harness.start_threads(bodies)

    phases = harness.run_phases(
        start, seconds, tracer,
        on_start=lambda: marks.update(before=layers.engine_counters(db)),
        on_end=lambda: marks.update(after=layers.engine_counters(db)),
    )
    rss = harness.peak_rss_mb()
    total = harness.merge(clients)

    checks.check_lock_table(db)
    checks.check_history(db)
    checks.check_money(
        final_total(lambda table: checks.committed_rows(db, table)),
        initial_total(CUSTOMERS), total.effects,
    )
    return finish(total, phases, rss, tracer,
                  layers.delta(marks["before"], marks["after"]),
                  gauges.metrics(), "smallbank", seed, CALM_ONLY)


def finish(total: ClientStats, phases: Phases, rss: float,
           tracer: SpanTracer | None, counters: dict, extra: dict,
           workload: str, seed: int, calm_only: bool) -> dict:
    """Assemble a run's result: end-to-end metrics untraced, per-layer
    metrics (and the span file) traced."""
    if tracer is None:
        metrics = harness.end_to_end(total, phases, rss, calm_only)
    else:
        metrics = layers.per_layer(tracer, counters, total, phases, extra)
        tracer.write(f"{harness.scratch_dir()}/spans-{workload}.csv")
    detail = (f"{workload} seed {seed}: {total.committed} commits, "
              f"{total.retries} retries; read-write "
              f"{harness.tail(harness.seconds_in(total.rw_latency))}; "
              f"read-only {harness.tail(harness.seconds_in(total.ro_latency))}"
              f"; commits per window "
              f"{[total.window_commits.get(i, 0) for i in range(len(phases.steal))]}"
              f", steal ticks per window {phases.steal}, "
              f"{len(phases.calm_windows())} calm, median window over all "
              f"{harness.median_window_rate(total, phases):g} txn/s")
    return {"attempted": total.attempted, "failed": total.failed,
            "metrics": metrics, "detail": detail}
