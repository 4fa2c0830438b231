"""Output checks, computed apart from the engine.

Each check either recomputes a result from the benchmark's own record of
what it asked the engine to do, or tests a property SSI must have
(an acyclic multiversion serialization graph, an empty lock table once
every transaction has finished).  A failure raises
:class:`~ssibench.harness.CheckFailed`.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.sgt.checker import check_serializable
from repro.shard.audit import check_merged_serializable
from repro.sim.direct import run_program
from repro.sim.ops import Scan

from ssibench.harness import CheckFailed

#: dollars of rounding slack allowed on float money sums
MONEY_EPSILON = 1e-6


# ----------------------------------------------------------- SmallBank

def money_bounds(initial_total: float,
                 effects: Iterable[tuple]) -> tuple[float, float]:
    """The range the final Saving + Checking total must lie in, given
    the inputs ``(kind, customer, other customer, amount)`` of every
    committed SmallBank transaction.

    Deposits and savings transactions add their amount, checks subtract
    theirs, Balance and Amalgamate move nothing; each committed check
    may also have paid the $1 overdraft penalty.
    """
    upper = initial_total
    checks = 0
    for kind, _first, _other, amount in effects:
        if kind in ("deposit_checking", "transact_saving"):
            upper += amount
        elif kind == "write_check":
            upper -= amount
            checks += 1
    return upper - checks, upper


def check_money(final_total: float, initial_total: float,
                effects: Iterable[tuple]) -> None:
    lower, upper = money_bounds(initial_total, effects)
    if not (lower - MONEY_EPSILON <= final_total <= upper + MONEY_EPSILON):
        raise CheckFailed(
            f"SmallBank money total {final_total} outside "
            f"[{lower}, {upper}] implied by the committed transactions"
        )


def check_history(db) -> None:
    report = check_serializable(db.history)
    if not report.serializable:
        raise CheckFailed(report.describe())


def check_merged_history(coordinator) -> None:
    report = check_merged_serializable(coordinator.shard_histories())
    if not report.serializable:
        raise CheckFailed(report.describe())


def check_lock_table(db) -> None:
    """After every client finished: no lock, owner, waiter or SIREAD
    sentinel may survive the cleanup of suspended transactions."""
    db.cleanup_suspended()
    lm = db.locks
    residue = {
        "granted": lm.table_size(),
        "siread": lm.siread_lock_count(),
        "waiting": len(lm.waiting_requests()),
    }
    if any(residue.values()):
        raise CheckFailed(f"lock table not clean after quiesce: {residue}")


def check_shard_lock_tables(coordinator) -> None:
    for shard, audit in enumerate(coordinator.audit_shards()):
        residue = {
            key: audit[key]
            for key in ("granted", "owners", "waiters", "siread", "prepared")
            if audit[key]
        }
        if residue:
            raise CheckFailed(f"shard {shard} lock table not clean: {residue}")


def committed_rows(db, table: str) -> dict[Hashable, object]:
    """The committed contents of ``table``, read through a fresh
    snapshot once the engine (a database or a coordinator) is quiet."""
    def scan():
        rows = yield Scan(table)
        return rows

    return dict(run_program(db, scan(), "si"))


# ----------------------------------------------------------- reporting

class LoadCapture:
    """Stands in for a database while the reporting generator loads, so
    the loaded rows are known without asking the engine for them."""

    def __init__(self) -> None:
        self.tables: dict[str, dict] = {}

    def create_table(self, name: str, page_size: int | None = None) -> None:
        self.tables[name] = {}

    def load(self, name: str, rows) -> None:
        self.tables[name].update(rows)

    def create_index(self, *args, **kwargs) -> None:
        pass


def q1_model(lineitems: dict) -> dict:
    """TPC-H Q1 as the workload defines it, over plain rows in key order."""
    bands: dict[int, list[float]] = {}
    for key in sorted(lineitems):
        item = lineitems[key]
        band = int(item["discount"] * 100) // 5
        acc = bands.setdefault(band, [0.0, 0])
        acc[0] += item["qty"] * item["price"] * (1 - item["discount"])
        acc[1] += item["qty"]
    return {band: tuple(acc) for band, acc in sorted(bands.items())}


def q5_model(customers: dict, orders: dict, region: str) -> int:
    members = {c_id for c_id, row in customers.items()
               if row["region"] == region}
    return sum(row["total"] for row in orders.values()
               if row["c_id"] in members)


def q6_model(orders: dict, lo: int, hi: int, min_total: int = 200) -> int:
    return sum(
        row["total"] for o_id, row in orders.items()
        if lo <= o_id <= hi and row["total"] >= min_total
        and row["status"] != "open"
    )


def check_equal(what: str, live, expected) -> None:
    if live != expected:
        raise CheckFailed(f"{what}: engine gave {live!r}, model gives "
                          f"{expected!r}")


def check_tables(db, model: dict[str, dict]) -> None:
    for table, rows in model.items():
        live = committed_rows(db, table)
        if live != rows:
            missing = [k for k in rows if k not in live][:3]
            extra = [k for k in live if k not in rows][:3]
            wrong = [k for k in rows if k in live and live[k] != rows[k]][:3]
            raise CheckFailed(
                f"table {table}: {len(live)} rows vs model {len(rows)}; "
                f"missing {missing}, unexpected {extra}, differing {wrong}"
            )
