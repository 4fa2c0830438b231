"""The ``smallbank-durable`` workload: the commit pipeline.

:data:`SESSIONS` sessions run the SmallBank mix at ``ssi`` on a
:class:`~repro.session.SessionScheduler` with :data:`WORKERS` worker
threads.  The engine has group commit on and a file-backed
:class:`~repro.wal.log.WriteAheadLog` that is flushed on every commit
(``wal_flush_on_commit``, the default).  Set-up loads the customers and
takes a checkpoint; the output check recovers a second database from
that checkpoint plus the flushed log file alone and compares it with
the live one.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import ConstraintError, TransactionAbortedError
from repro.session import SessionScheduler
from repro.wal.checkpoint import recover_from_checkpoint, take_checkpoint
from repro.wal.log import WriteAheadLog
from repro.workloads import smallbank as sb

from ssibench import checks, harness, layers
from ssibench.harness import LEVEL, ClientStats, Fault, Phases, wait_until
from ssibench.smallbank import (
    PeakGauges,
    client_rng,
    draw,
    final_total,
    finish,
    initial_total,
    is_balance,
    program,
    trace_database,
)
from ssibench.tracing import SpanTracer

SESSIONS = 16
WORKERS = 2
CUSTOMERS = 10_000
#: the log grows through a run and the commit rate falls with it, so
#: the end-to-end metrics take every window (see ``harness.end_to_end``)
CALM_ONLY = False


@dataclass
class Target:
    db: Database
    wal: WriteAheadLog
    checkpoint: dict
    scheduler: SessionScheduler


def build(path: str) -> Target:
    if os.path.exists(path):
        os.remove(path)
    wal = WriteAheadLog(path)
    db = Database(EngineConfig(group_commit=True), wal=wal)
    sb.setup_smallbank(db, CUSTOMERS)
    checkpoint = take_checkpoint(db)
    return Target(db, wal, checkpoint, SessionScheduler(db, workers=WORKERS))


class SessionClient:
    """One session's closed loop, driven by completion callbacks on the
    scheduler's worker threads (a session runs one invocation at a
    time, so its tallies need no lock)."""

    def __init__(self, session, rng, stats: ClientStats, phases: Phases,
                 finished, after_txn) -> None:
        self.session = session
        self.rng = rng
        self.stats = stats
        self.phases = phases
        self.finished = finished
        self.after_txn = after_txn
        self.inputs = None
        self.started = 0.0
        self.attempts = 0

    def next(self) -> None:
        self.started = time.perf_counter()
        if self.started >= self.phases.measure_end:
            self.session.close()
            self.finished(None)
            return
        self.inputs = draw(self.rng, CUSTOMERS)
        self.attempts = 1
        self.submit()

    def submit(self) -> None:
        self.session.run_program(program(self.inputs), LEVEL,
                                 on_done=self.on_done)

    def on_done(self, _result, error) -> None:
        if error is not None:
            if isinstance(error, ConstraintError) or not isinstance(
                    error, TransactionAbortedError):
                self.session.close()
                self.finished(error)
                return
            if self.attempts < harness.RETRY_CAP:
                self.attempts += 1
                self.submit()
                return
        ok = error is None
        if ok:
            self.stats.effects.append(self.inputs)
        self.stats.record(self.phases, self.started, time.perf_counter(),
                          is_balance(self.inputs), ok, self.attempts)
        if self.after_txn is not None:
            self.after_txn()
        self.next()


def start_sessions(target: Target, seed: int, clients: list[ClientStats],
                   after_txn):
    """Return a ``start(phases)`` for :func:`harness.run_phases`."""
    def start(phases: Phases):
        lock = threading.Lock()
        done = threading.Event()
        failures: list[BaseException] = []
        left = [len(clients)]

        def finished(error) -> None:
            with lock:
                if error is not None:
                    failures.append(error)
                left[0] -= 1
                if left[0] == 0:
                    done.set()

        for index, stats in enumerate(clients):
            SessionClient(target.scheduler.session(),
                          client_rng(seed, "smallbank-durable", index),
                          stats, phases, finished, after_txn).next()

        def join() -> None:
            wait_until(phases.measure_end)
            finished_in_time = done.wait(harness.STRAGGLER_S)
            target.scheduler.shutdown()
            if not finished_in_time:
                raise Fault(f"sessions still running {harness.STRAGGLER_S:.0f}"
                            "s after the measured phase")
            if failures:
                error = failures[0]
                raise Fault(f"{type(error).__name__}: {error}") from error

        return join

    return start


def wal_marks(target: Target) -> dict:
    marks = layers.engine_counters(target.db)
    marks["wal_flushes"] = target.wal.stats["flushes"]
    return marks


def check_recovery(target: Target) -> None:
    """The checkpoint plus the flushed log file alone must rebuild the
    committed state of the live database."""
    recovered = recover_from_checkpoint(
        target.checkpoint, WriteAheadLog.load(target.wal.path)
    )
    for table in (sb.ACCOUNT, sb.SAVING, sb.CHECKING):
        live = checks.committed_rows(target.db, table)
        again = checks.committed_rows(recovered, table)
        if live != again:
            differing = [k for k in live if live[k] != again.get(k)][:3]
            raise harness.CheckFailed(
                f"recovered {table} differs from the live one "
                f"({len(again)} vs {len(live)} rows; e.g. keys {differing})"
            )


def run(seed: int, seconds: float, trace: bool) -> dict:
    path = os.path.join(harness.scratch_dir(), "smallbank-durable.wal")
    return harness.run_with_setups(
        lambda: build(path), lambda old: old.scheduler.shutdown(),
        lambda target: measure(target, path, seed, seconds, trace), trace)


def measure(target: Target, path: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run and check; the scheduler is shut down once the clients end."""
    log_bytes_before = os.path.getsize(path)
    tracer = SpanTracer() if trace else None
    gauges = PeakGauges(target.db)
    # File size after each traced flush.  Each flush rewrites the whole
    # file, so a size read while the next flush is already writing can
    # come out short; sizes never shrink, so keep the larger.
    written: list[int] = [0]
    if tracer is not None:
        trace_database(tracer, target.db)
        for op in ("log_begin", "log_write", "log_commit", "log_abort"):
            tracer.call(target.wal, op, "wal.append")
        tracer.call(target.wal, "flush", "wal.flush",
                    after=lambda _lsn: written.append(
                        max(os.path.getsize(path), written[-1])))
    clients = [ClientStats() for _ in range(SESSIONS)]
    marks: dict[str, dict] = {}
    phases = harness.run_phases(
        start_sessions(target, seed, clients,
                       gauges.sample if trace else None),
        seconds, tracer,
        on_start=lambda: marks.update(before=wal_marks(target)),
        on_end=lambda: marks.update(after=wal_marks(target)),
    )
    rss = harness.peak_rss_mb()
    total = harness.merge(clients)

    db = target.db
    checks.check_lock_table(db)
    check_recovery(target)
    checks.check_money(
        final_total(lambda table: checks.committed_rows(db, table)),
        initial_total(CUSTOMERS), total.effects,
    )
    counters = layers.delta(marks["before"], marks["after"])
    traced_commits = sum(
        count for window, count in total.window_commits.items() if window % 2
    )
    extra = gauges.metrics()
    extra.update({
        "wal.flushes_per_commit": layers.ratio(counters["wal_flushes"],
                                               total.committed),
        # Quiesced sizes: after set-up and after the run, over every
        # commit of the run (warm-up and tail included).
        "wal.log_bytes_per_commit": layers.ratio(
            os.path.getsize(path) - log_bytes_before, len(total.effects)),
        "wal.bytes_written_per_commit": layers.ratio(sum(written),
                                                     traced_commits),
    })
    return finish(total, phases, rss, tracer, counters, extra,
                  "smallbank-durable", seed, CALM_ONLY)
