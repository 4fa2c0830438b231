"""Shared machinery for the four benchmark workloads.

A run has five parts, always in this order:

1. **set-up**, built :data:`PRE_SETUPS` times; the last copy is the one
   measured on;
2. **warm-up** for :data:`WARMUP_S` seconds, counted nowhere;
3. the **measured phase** of ``--seconds`` seconds;
4. the **output checks**, which raise :class:`CheckFailed` on any
   violation;
5. untraced runs only: at least :data:`POST_SETUPS` more set-up builds,
   and more until they have taken :data:`POST_SETUP_S` seconds, each
   torn down again.  ``setup_s`` is the median of all the builds, which
   are spread over the whole run so that one slow second of the host
   does not decide it.

Clients are closed loops.  Each logical transaction keeps its inputs
across retries: a :class:`~repro.errors.TransactionAbortedError` from
concurrency control re-runs the same program from a fresh generator,
up to :data:`RETRY_CAP` attempts.  Anything else (including an
application rollback, which no generated input should trigger) is a
fault and ends the run.

A logical transaction belongs to the phase in which it *completes*;
latency runs from its first ``begin`` to the return of its final
``commit``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConstraintError, TransactionAbortedError
from repro.sim.direct import run_program

#: isolation level of every workload
LEVEL = "ssi"
#: set-up copies built before and after the measured phase; ``setup_s``
#: is the median of all of them
PRE_SETUPS = 3
POST_SETUPS = 4
#: the builds after the run go on until they have taken this long, so
#: that a set-up of a few milliseconds is still timed over a second
POST_SETUP_S = 1.0
#: closed-loop warm-up before the measured phase (seconds)
WARMUP_S = 2.0
#: attempts per logical transaction before it counts as failed
RETRY_CAP = 1000
#: length of the windows the measured phase is cut into: the untraced
#: run's commit rate is their median; the traced run alternates
#: untraced and traced windows
TRACE_WINDOW_S = 1.0
#: how long clients may take to finish their last transaction once the
#: measured phase is over
STRAGGLER_S = 60.0


class CheckFailed(Exception):
    """An output check found a result the engine should not produce."""


class Fault(Exception):
    """A client hit an exception that is not a concurrency-control abort."""


@dataclass
class Phases:
    """Wall-clock phase boundaries shared by every client of one run."""

    measure_start: float
    measure_end: float
    #: CPU time the hypervisor took from this machine in each window of
    #: the measured phase, in clock ticks summed over all CPUs
    steal: list = field(default_factory=list)

    def window(self, now: float) -> int:
        """Index of the trace window ``now`` falls in (-1 in warm-up)."""
        if now < self.measure_start:
            return -1
        return int((now - self.measure_start) / TRACE_WINDOW_S)

    @property
    def seconds(self) -> float:
        return self.measure_end - self.measure_start

    def calm_windows(self) -> set[int]:
        """The windows whose steal time is at most the median window's:
        at least half of them, and all when nothing was stolen."""
        cut = statistics.median(self.steal)
        return {index for index, ticks in enumerate(self.steal)
                if ticks <= cut}


@dataclass
class ClientStats:
    """One client's tallies.  A client owns its object, so no locking."""

    #: logical transactions completed (committed or failed) in the
    #: measured phase
    attempted: int = 0
    failed: int = 0
    committed: int = 0
    #: extra attempts beyond the first, measured phase only
    retries: int = 0
    #: ``(window, seconds)`` of each committed transaction
    rw_latency: list = field(default_factory=list)
    ro_latency: list = field(default_factory=list)
    #: commits, and read-only commits, per trace window of the
    #: measured phase
    window_commits: dict = field(default_factory=dict)
    window_ro: dict = field(default_factory=dict)
    #: inputs of every committed logical transaction, warm-up
    #: included — what the output checks replay
    effects: list = field(default_factory=list)

    def record(self, phases: Phases, started: float, finished: float,
               read_only: bool, ok: bool, attempts: int) -> None:
        window = phases.window(finished)
        if window < 0 or finished >= phases.measure_end:
            return
        self.attempted += 1
        self.retries += attempts - 1
        if not ok:
            self.failed += 1
            return
        self.committed += 1
        self.window_commits[window] = self.window_commits.get(window, 0) + 1
        if read_only:
            self.window_ro[window] = self.window_ro.get(window, 0) + 1
            self.ro_latency.append((window, finished - started))
        else:
            self.rw_latency.append((window, finished - started))


def run_logical(run_once: Callable[[], object]) -> tuple[bool, int, object]:
    """Run one logical transaction with retries.

    Returns ``(committed, attempts, value)``.  Concurrency-control
    aborts are retried; an application rollback or any other exception
    is raised as :class:`Fault`.
    """
    for attempt in range(1, RETRY_CAP + 1):
        try:
            return True, attempt, run_once()
        except ConstraintError as error:
            raise Fault(f"application rollback on generated input: {error}")
        except TransactionAbortedError:
            continue
    return False, RETRY_CAP, None


def closed_loop(target, stats: ClientStats, phases: Phases,
                next_inputs: Callable[[], tuple],
                program_of: Callable[[tuple], object],
                read_only: Callable[[tuple], bool],
                on_commit: Callable[[tuple], None] | None = None,
                after_txn: Callable[[], None] | None = None) -> None:
    """One in-thread client: draw inputs, run ``program_of(inputs)`` on
    ``target`` with retries, record it, until the measured phase ends.
    The inputs of each committed transaction go to ``stats.effects``
    and to ``on_commit``; ``after_txn`` runs after every transaction,
    committed or not."""
    while True:
        started = time.perf_counter()
        if started >= phases.measure_end:
            return
        inputs = next_inputs()
        ok, attempts, _value = run_logical(
            lambda: run_program(target, program_of(inputs), LEVEL)
        )
        stats.record(phases, started, time.perf_counter(),
                     read_only(inputs), ok, attempts)
        if ok:
            stats.effects.append(inputs)
            if on_commit is not None:
                on_commit(inputs)
        if after_txn is not None:
            after_txn()


def merge(stats: list[ClientStats]) -> ClientStats:
    total = ClientStats()
    for one in stats:
        total.attempted += one.attempted
        total.failed += one.failed
        total.committed += one.committed
        total.retries += one.retries
        total.rw_latency.extend(one.rw_latency)
        total.ro_latency.extend(one.ro_latency)
        total.effects.extend(one.effects)
        for mine, theirs in ((total.window_commits, one.window_commits),
                             (total.window_ro, one.window_ro)):
            for window, count in theirs.items():
                mine[window] = mine.get(window, 0) + count
    return total


def run_with_setups(build: Callable[[], object],
                    teardown: Callable[[object], None],
                    measure: Callable[[object], dict], trace: bool) -> dict:
    """Build the target, ``measure`` it, and add ``setup_s`` (untraced).

    ``measure`` owns the target it is given: it must tear it down, or
    drop every reference to it, before it returns, so the builds after
    it start from a heap like the one the first builds saw.
    """
    durations: list[float] = []

    def timed_build() -> object:
        gc.collect()
        started = time.perf_counter()
        target = build()
        durations.append(time.perf_counter() - started)
        return target

    target = timed_build()
    for _ in range(PRE_SETUPS - 1):
        # Drop the old copy before building the next, so that no more
        # than one copy is alive at a time, as in the measured phase.
        teardown(target)
        target = None
        target = timed_build()
    result = measure(target)
    del target
    if not trace:
        while (len(durations) < PRE_SETUPS + POST_SETUPS
               or sum(durations[PRE_SETUPS:]) < POST_SETUP_S):
            teardown(timed_build())
        result["metrics"]["setup_s"] = (statistics.median(durations), "s")
    return result


def peak_rss_mb(extra_pids: tuple[int, ...] = ()) -> float:
    """High-water resident memory of this process plus ``extra_pids``."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        kib += _vm_hwm_kib(pid)
    return kib / 1024.0


def _vm_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise CheckFailed(f"no VmHWM for process {pid}")


def seconds_in(samples: list, windows: set[int] | None = None) -> list:
    """The latencies of ``(window, seconds)`` samples, of ``windows``
    only when given."""
    return [seconds for window, seconds in samples
            if windows is None or window in windows]


def median_ms(samples: list[float]) -> float:
    if not samples:
        raise CheckFailed("no committed transactions of a measured kind")
    return statistics.median(samples) * 1000.0


def tail(samples: list[float]) -> str:
    """The median and the highest of p99.9/p99/p90 with at least ten
    samples beyond it, in ms, with the sample count."""
    n = len(samples)
    text = f"n={n}"
    if n:
        text += f" p50={median_ms(samples):.3f}ms"
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=1000)[int(pct * 10) - 1]
            return text + f" p{pct:g}={cut * 1000.0:.3f}ms"
    return text


def median_window_rate(total: ClientStats, phases: Phases,
                       windows: set[int] | None = None) -> float:
    """Median commits per second over ``windows`` of the measured phase
    (all of them when not given)."""
    if windows is None:
        windows = set(range(len(phases.steal)))
    return statistics.median(total.window_commits.get(index, 0)
                             / TRACE_WINDOW_S for index in sorted(windows))


def end_to_end(total: ClientStats, phases: Phases, rss_mb: float,
               calm_only: bool) -> dict:
    """The end-to-end metrics of one untraced run but ``setup_s``, which
    :func:`run_with_setups` adds.

    ``commits_per_s`` is the median one-second window's commit rate.
    With ``calm_only``, it and the latency medians come from the calm
    windows alone (:meth:`Phases.calm_windows`).  On a shared virtual
    machine the hypervisor takes CPU time away for seconds at a time,
    and a window's rate falls with it: several-fold on
    ``smallbank-sharded``, whose wire round trips wait on thread
    wake-ups in three processes.  Only a workload whose rate holds level
    through a run may pick its windows so: where the rate falls as
    tables or the log grow, the calm windows would bunch at whichever
    end of the run the host happened to be calm.
    """
    windows = phases.calm_windows() if calm_only else None
    return {
        "commits_per_s": (median_window_rate(total, phases, windows),
                          "txn/s"),
        "rw_p50_ms": (median_ms(seconds_in(total.rw_latency, windows)),
                      "ms"),
        "ro_p50_ms": (median_ms(seconds_in(total.ro_latency, windows)),
                      "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def steal_ticks() -> int:
    """Steal time of the whole machine so far (``/proc/stat``), 0 where
    the kernel does not report it."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def wait_until(deadline: float) -> None:
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            return
        time.sleep(min(left, 0.05))


def scratch_dir() -> str:
    """``.bench_run`` in the checkout root, for WAL files and traces."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, ".bench_run")
    os.makedirs(path, exist_ok=True)
    return path


def start_threads(bodies: list[Callable[[], None]]) -> Callable[[], None]:
    """Start one thread per body; the returned function joins them all
    and re-raises the first exception a body raised."""
    failures: list[BaseException] = []

    def guard(body: Callable[[], None]) -> None:
        try:
            body()
        except BaseException as error:  # re-raised by join()
            failures.append(error)

    # Daemon threads, so a client stuck in the engine cannot keep the
    # process from exiting once join() has given up on it.
    threads = [
        threading.Thread(target=guard, args=(body,), name=f"client-{index}",
                         daemon=True)
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()

    def join() -> None:
        deadline = time.perf_counter() + STRAGGLER_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
            if thread.is_alive():
                raise Fault(f"{thread.name} still running "
                            f"{STRAGGLER_S:.0f}s after the measured phase")
        if failures:
            raise failures[0]

    return join


def run_phases(start: Callable[[Phases], Callable[[], None]], seconds: float,
               tracer=None, on_start: Callable[[], None] | None = None,
               on_end: Callable[[], None] | None = None) -> Phases:
    """Warm up, then measure for ``seconds``.

    ``start(phases)`` launches the clients and returns their join
    function.  ``on_start``/``on_end`` run on this thread at the measured
    phase's boundaries (counter snapshots).  The steal time of each
    window goes to ``phases.steal``.  With a ``tracer``, odd windows of
    the measured phase are traced and even ones are not.
    """
    now = time.perf_counter()
    phases = Phases(now + WARMUP_S, now + WARMUP_S + seconds)
    join = start(phases)
    try:
        wait_until(phases.measure_start)
        if on_start is not None:
            on_start()
        stolen = steal_ticks()
        for index in range(int(seconds / TRACE_WINDOW_S)):
            if tracer is not None:
                if index % 2:
                    tracer.install()
                else:
                    tracer.uninstall()
            wait_until(phases.measure_start + (index + 1) * TRACE_WINDOW_S)
            phases.steal.append(steal_ticks() - stolen)
            stolen += phases.steal[-1]
        wait_until(phases.measure_end)
        if tracer is not None:
            tracer.uninstall()
        if on_end is not None:
            on_end()
    finally:
        join()
    return phases
