"""Per-layer metrics of the traced run.

Every traced run prints every metric in :data:`PER_LAYER`; a layer the
workload does not exercise reads 0.  Three sources feed them:

* spans (:mod:`ssibench.tracing`), which exist only in the traced
  windows of the measured phase — divided by the commits of those
  windows;
* the program's own counters (``db.metrics.snapshot()``,
  ``WriteAheadLog.stats``, ``PipelinedClient.stats``, the coordinator's
  registry), read as deltas over the whole measured phase — divided by
  all its commits;
* the clients' tallies and samples taken between transactions.
"""

from __future__ import annotations

import statistics

from ssibench.harness import TRACE_WINDOW_S, ClientStats, Phases
from ssibench.tracing import SpanTracer, mean_us

#: name -> unit, in the order they are printed (and in BENCHMARK.json)
PER_LAYER: dict[str, str] = {
    "engine.begin_us": "us",
    "engine.read_us": "us",
    "engine.write_us": "us",
    "engine.commit_us": "us",
    "engine.scan_us": "us",
    "engine.retries_per_commit": "1/txn",
    "engine.self_us_per_commit": "us/txn",
    "locking.acquires_per_commit": "1/txn",
    "locking.waits_per_commit": "1/txn",
    "locking.wait_us": "us",
    "locking.peak_table_size": "count",
    "locking.peak_siread_locks": "count",
    "locking.self_us_per_commit": "us/txn",
    "cc.certify_us": "us",
    "cc.conflicts_marked_per_commit": "1/txn",
    "cc.self_us_per_commit": "us/txn",
    "mvcc.version_chain_mean": "count",
    "storage.scan_chunks_us": "us",
    "storage.rows_per_report": "rows",
    "storage.vacuum_ms": "ms",
    "storage.versions_reclaimed_per_vacuum": "count",
    "storage.self_us_per_commit": "us/txn",
    "wal.flush_ms": "ms",
    "wal.flushes_per_commit": "1/txn",
    "wal.bytes_written_per_commit": "B/txn",
    "wal.log_bytes_per_commit": "B/txn",
    "wal.self_us_per_commit": "us/txn",
    "groupcommit.batch_size": "txn",
    "session.wait_ms": "ms",
    "client.rpc_us": "us",
    "client.frames_per_commit": "1/txn",
    "client.self_us_per_commit": "us/txn",
    "shard.single_commit_ms": "ms",
    "shard.twopc_ms": "ms",
    "shard.escalation_conflicts_per_commit": "1/txn",
    "shard.self_us_per_commit": "us/txn",
    "trace.commits_per_s": "txn/s",
    "trace.untraced_commits_per_s": "txn/s",
    "trace.overhead_pct": "%",
}

#: synchronous RemoteShard calls: one wire round trip each
RPC_SPANS = ("client.begin", "client.read", "client.get",
             "client.read_for_update", "client.write", "client.commit")


def engine_counters(db) -> dict[str, float]:
    """The counters a per-layer metric is derived from, flattened."""
    return flatten(db.metrics.snapshot())


def flatten(snapshot: dict) -> dict[str, float]:
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    out = {
        "lock_acquires": counters["locks"]["acquires"],
        "lock_waits": counters["locks"]["waits"],
        "marked": counters["tracker"]["marked"],
    }
    for key, name in (("lock_wait", "lock_wait_time"),
                      ("chain", "version_chain_length"),
                      ("session_wait", "session_wait_time")):
        hist = histograms.get(name, {"total": 0.0, "count": 0})
        out[key + "_total"] = hist["total"]
        out[key + "_count"] = hist["count"]
    group = counters.get("group_commit", {"batches": 0, "batched_txns": 0})
    out["gc_batches"] = group["batches"]
    out["gc_txns"] = group["batched_txns"]
    return out


def add(*parts: dict[str, float]) -> dict[str, float]:
    total: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def delta(before: dict[str, float], after: dict[str, float]) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_window_rates(stats: ClientStats,
                        phases: Phases) -> tuple[list[float], list[float]]:
    """Commits per second of the (traced, untraced) windows."""
    windows = int(phases.seconds / TRACE_WINDOW_S)
    traced, plain = [], []
    for index in range(windows):
        rate = stats.window_commits.get(index, 0) / TRACE_WINDOW_S
        (traced if index % 2 else plain).append(rate)
    return traced, plain


def per_layer(tracer: SpanTracer, counters: dict[str, float],
              stats: ClientStats, phases: Phases, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``.

    ``counters`` is the delta over the measured phase; ``extra`` holds
    workload-specific figures already computed (keys of PER_LAYER).
    """
    spans = tracer.summary()
    commits = stats.committed
    traced, plain = traced_window_rates(stats, phases)
    traced_commits = sum(traced) * TRACE_WINDOW_S
    layer_self = tracer.layer_self_ns()

    def self_per_commit(layer: str) -> float:
        return ratio(layer_self.get(layer, 0) / 1000.0, traced_commits)

    traced_reports = sum(count for window, count in stats.window_ro.items()
                         if window % 2)
    chunks = spans.get("storage.scan_chunks", {"total_ns": 0})
    values = {
        "engine.begin_us": mean_us(spans, "engine.begin"),
        "engine.read_us": mean_us(spans, "engine.read", "engine.get",
                                  "engine.read_for_update"),
        "engine.write_us": mean_us(spans, "engine.write", "engine.insert",
                                   "engine.delete"),
        "engine.commit_us": mean_us(spans, "engine.commit"),
        "engine.scan_us": mean_us(spans, "engine.scan", "engine.scan_prefix"),
        "engine.retries_per_commit": ratio(stats.retries, commits),
        "locking.acquires_per_commit": ratio(
            counters.get("lock_acquires", 0), commits),
        "locking.waits_per_commit": ratio(
            counters.get("lock_waits", 0), commits),
        "locking.wait_us": ratio(counters.get("lock_wait_total", 0.0) * 1e6,
                                 counters.get("lock_wait_count", 0)),
        "cc.certify_us": mean_us(spans, "cc.certify"),
        "cc.conflicts_marked_per_commit": ratio(
            counters.get("marked", 0), commits),
        "mvcc.version_chain_mean": ratio(counters.get("chain_total", 0.0),
                                         counters.get("chain_count", 0)),
        "storage.scan_chunks_us": ratio(
            chunks["total_ns"] / 1000.0,
            tracer.generators.get("storage.scan_chunks", 0)),
        "storage.rows_per_report": ratio(
            tracer.rows.get("storage.scan_chunks", 0), traced_reports),
        "storage.vacuum_ms": mean_us(spans, "storage.vacuum") / 1000.0,
        "wal.flush_ms": mean_us(spans, "wal.flush") / 1000.0,
        "groupcommit.batch_size": ratio(counters.get("gc_txns", 0),
                                        counters.get("gc_batches", 0)),
        "session.wait_ms": ratio(counters.get("session_wait_total", 0.0)
                                 * 1e3,
                                 counters.get("session_wait_count", 0)),
        "client.rpc_us": mean_us(spans, *RPC_SPANS),
        "client.frames_per_commit": ratio(counters.get("frames_sent", 0),
                                          commits),
        "shard.single_commit_ms": mean_us(spans, "shard.single_commit")
        / 1000.0,
        "shard.twopc_ms": mean_us(spans, "shard.twopc") / 1000.0,
        "shard.escalation_conflicts_per_commit": ratio(
            counters.get("escalation_conflicts", 0), commits),
        "trace.commits_per_s": statistics.median(traced) if traced else 0.0,
        "trace.untraced_commits_per_s": (
            statistics.median(plain) if plain else 0.0),
    }
    for layer in ("engine", "locking", "cc", "storage", "wal", "client",
                  "shard"):
        values[f"{layer}.self_us_per_commit"] = self_per_commit(layer)
    values["trace.overhead_pct"] = 100.0 * (
        1.0 - ratio(values["trace.commits_per_s"],
                    values["trace.untraced_commits_per_s"]))
    values.update(extra)
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()}
