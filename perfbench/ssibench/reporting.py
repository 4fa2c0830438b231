"""The ``reporting`` workload: long scans beside short writers.

One in-process :class:`~repro.engine.database.Database` with engine
defaults (so ``scan_page_lock_threshold`` is off and every scanned row
takes a record SIREAD) plus history recording, loaded by
:func:`repro.workloads.reporting.setup_reporting` at scale
:data:`SCALE` from the run's seed.  Two client threads at ``ssi``:

* the *reporter* runs the five report queries (Q1, Q3, Q5, Q6, recent
  orders) back to back, each one read-only transaction;
* the *writer* runs order entry (a share of
  :data:`ORDER_ENTRY_SHARE`) and payment, and calls
  ``Database.vacuum()`` after every :data:`VACUUM_EVERY` of its
  commits.
"""

from __future__ import annotations

import itertools
import time

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.direct import run_program
from repro.workloads import reporting as rp

from ssibench import checks, harness, layers
from ssibench.harness import LEVEL, ClientStats, Phases
from ssibench.smallbank import PeakGauges, client_rng, finish
from ssibench.smallbank import trace_database
from ssibench.tracing import SpanTracer

SCALE = 6
VACUUM_EVERY = 50
#: the tables grow through a run and the commit rate falls with them,
#: so the end-to-end metrics take every window (see
#: ``harness.end_to_end``)
CALM_ONLY = False
#: share of the writer's transactions that are order entries; the rest
#: are payments.  ``make_reporting`` weights the two equally, but at
#: that share the scan-starvation fault (see the README) lets one Q1 run
#: for seconds and a run finishes too few reports for a steady median.
ORDER_ENTRY_SHARE = 0.05
TABLES = (rp.CUSTOMER, rp.ORDERS, rp.LINEITEM)
REPORTS = ("q1", "q3", "q5", "q6", "recent")
QUERIES = {
    "q1": rp.q1_pricing_summary,
    "q3": rp.q3_top_orders,
    "q5": rp.q5_region_revenue,
    "q6": rp.q6_revenue_band,
    "recent": rp.q_recent_orders,
}


def draw_report(query: str, rng) -> tuple:
    """One report query and its parameters, as plain inputs."""
    orders = rp.order_count(SCALE)
    if query == "q3":
        return query, rng.choice(rp.SEGMENTS)
    if query == "q5":
        return query, rng.choice(rp.REGIONS)
    if query == "q6":
        lo = rng.randrange(orders)
        return query, lo, lo + orders // 4
    if query == "recent":
        return query, rng.randrange(orders)
    return (query,)


def report_program(inputs: tuple):
    query, *params = inputs
    return QUERIES[query](*params)


def draw_write(rng, next_order: int) -> tuple:
    """An order entry or a payment, as plain inputs."""
    customers = rp.customer_count(SCALE)
    if rng.random() < ORDER_ENTRY_SHARE:
        lines = [
            (rng.randrange(1, 10), rng.randrange(10, 500),
             rng.randrange(0, 10) / 100.0)
            for _ in range(rng.randrange(1, rp.MAX_LINES_PER_ORDER + 1))
        ]
        return ("order_entry", next_order, rng.randrange(customers), lines)
    return ("payment", rng.randrange(customers), rng.randrange(1, 500))


def write_program(inputs: tuple):
    if inputs[0] == "order_entry":
        _kind, o_id, c_id, lines = inputs
        return rp.order_entry(o_id, c_id, lines)
    _kind, c_id, amount = inputs
    return rp.payment(c_id, amount)


def apply_write(model: dict, inputs: tuple) -> None:
    """The committed effect of one writer transaction on the model."""
    customers = model[rp.CUSTOMER]
    if inputs[0] == "payment":
        _kind, c_id, amount = inputs
        customers[c_id] = {**customers[c_id],
                           "balance": customers[c_id]["balance"] + amount}
        return
    _kind, o_id, c_id, lines = inputs
    total = 0
    for n, (qty, price, discount) in enumerate(lines):
        total += round(qty * price * (1 - discount))
        model[rp.LINEITEM][(o_id, n)] = {
            "qty": qty, "price": price, "discount": discount,
        }
    model[rp.ORDERS][o_id] = {
        "c_id": c_id, "date": o_id, "status": "open", "total": total,
    }
    customers[c_id] = {**customers[c_id],
                       "balance": customers[c_id]["balance"] - total}


def reporter(db, stats: ClientStats, phases: Phases, rng,
             after_txn) -> None:
    queries = itertools.cycle(REPORTS)
    harness.closed_loop(
        db, stats, phases, lambda: draw_report(next(queries), rng),
        report_program, lambda _inputs: True, after_txn=after_txn)


class Writer:
    """The order-entry/payment client and its vacuum tally."""

    def __init__(self, db, stats: ClientStats, rng) -> None:
        self.db = db
        self.stats = stats
        self.rng = rng
        self.next_order = rp.order_count(SCALE)
        self.commits = 0
        self.vacuums = 0
        self.reclaimed = 0

    def draw(self) -> tuple:
        inputs = draw_write(self.rng, self.next_order)
        if inputs[0] == "order_entry":
            self.next_order += 1
        return inputs

    def run(self, phases: Phases, after_txn) -> None:
        def on_commit(_inputs: tuple) -> None:
            self.commits += 1
            if self.commits % VACUUM_EVERY == 0:
                reclaimed = self.db.vacuum()
                if phases.measure_start <= time.perf_counter() \
                        < phases.measure_end:
                    self.vacuums += 1
                    self.reclaimed += reclaimed

        harness.closed_loop(self.db, self.stats, phases, self.draw,
                            write_program, lambda _inputs: False,
                            on_commit, after_txn)


def build(seed: int) -> Database:
    db = Database(EngineConfig(record_history=True))
    rp.setup_reporting(db, SCALE, seed=seed)
    return db


def loaded_model(seed: int) -> dict:
    capture = checks.LoadCapture()
    rp.setup_reporting(capture, SCALE, seed=seed)
    return capture.tables


def check_outputs(db, seed: int, writes: list, rng) -> None:
    model = loaded_model(seed)
    for inputs in writes:
        apply_write(model, inputs)
    checks.check_tables(db, model)
    checks.check_equal("q1", run_program(db, rp.q1_pricing_summary(), LEVEL),
                       checks.q1_model(model[rp.LINEITEM]))
    for region in rp.REGIONS:
        checks.check_equal(
            f"q5({region})",
            run_program(db, rp.q5_region_revenue(region), LEVEL),
            checks.q5_model(model[rp.CUSTOMER], model[rp.ORDERS], region))
    orders = len(model[rp.ORDERS])
    for _ in range(4):
        lo = rng.randrange(orders)
        hi = lo + orders // 4
        checks.check_equal(
            f"q6({lo}, {hi})",
            run_program(db, rp.q6_revenue_band(lo, hi), LEVEL),
            checks.q6_model(model[rp.ORDERS], lo, hi))


def run(seed: int, seconds: float, trace: bool) -> dict:
    return harness.run_with_setups(
        lambda: build(seed), lambda _db: None,
        lambda db: measure(db, seed, seconds, trace), trace)


def measure(db: Database, seed: int, seconds: float, trace: bool) -> dict:
    tracer = SpanTracer() if trace else None
    gauges = PeakGauges(db)
    if tracer is not None:
        trace_database(tracer, db, TABLES)
    after_txn = gauges.sample if trace else None
    report_stats, write_stats = ClientStats(), ClientStats()
    writer = Writer(db, write_stats, client_rng(seed, "reporting", 1))
    marks: dict[str, dict] = {}

    def start(phases: Phases):
        reader_rng = client_rng(seed, "reporting", 0)
        return harness.start_threads([
            lambda: reporter(db, report_stats, phases, reader_rng,
                             after_txn),
            lambda: writer.run(phases, after_txn),
        ])

    phases = harness.run_phases(
        start, seconds, tracer,
        on_start=lambda: marks.update(before=layers.engine_counters(db)),
        on_end=lambda: marks.update(after=layers.engine_counters(db)),
    )
    rss = harness.peak_rss_mb()
    total = harness.merge([report_stats, write_stats])

    checks.check_lock_table(db)
    checks.check_history(db)
    check_outputs(db, seed, write_stats.effects,
                  client_rng(seed, "reporting-check", 0))
    extra = gauges.metrics()
    extra["storage.versions_reclaimed_per_vacuum"] = layers.ratio(
        writer.reclaimed, writer.vacuums)
    return finish(total, phases, rss, tracer,
                  layers.delta(marks["before"], marks["after"]), extra,
                  "reporting", seed, CALM_ONLY)
