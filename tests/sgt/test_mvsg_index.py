"""The indexed MVSG builder against a brute-force reference.

:func:`~repro.sgt.mvsg.build_mvsg` bisects per-item commit timestamps and
per-table sorted keys.  The reference below is the direct reading of the
edge definitions — every writer of every item tested against every read
and every scan — and the two must produce the same edge set over random
histories mixing point reads, batched scan entries (``on_scan_rows``),
seen-keys-only scan entries (``on_scan``), snapshot-less scans, writes
and aborted transactions.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.sgt.history import (
    READ_HIDDEN,
    READ_RETURNED,
    RETURNED_UNREAD,
    HistoryRecorder,
)
from repro.sgt.mvsg import DependencyEdge, build_mvsg

TABLES = ("a", "b")
KEYS = tuple(range(12))


def reference_edges(history: HistoryRecorder) -> set[DependencyEdge]:
    committed = {record.txn_id: record for record in history.committed()}
    writers = defaultdict(list)
    for record in committed.values():
        for op in record.writes():
            writers[(op.table, op.key)].append((record.commit_ts, record.txn_id))
    edges = set()

    def add(src, dst, kind, item):
        if src != dst:
            edges.add(DependencyEdge(src, dst, kind, item))

    for item, versions in writers.items():
        versions.sort()
        for (_ts1, txn1), (_ts2, txn2) in zip(versions, versions[1:]):
            add(txn1, txn2, "ww", item)
    for record in committed.values():
        for op in record.reads():
            item = (op.table, op.key)
            if op.version_ts:
                for commit_ts, writer in writers.get(item, ()):
                    if commit_ts == op.version_ts:
                        add(writer, record.txn_id, "wr", item)
            observed = (op.version_ts if op.version_ts is not None
                        else record.begin_ts or 0)
            for commit_ts, writer in writers.get(item, ()):
                if commit_ts > observed:
                    add(record.txn_id, writer, "rw", item)
        for op in record.scans():
            lo, hi = op.key
            read_ts = op.version_ts or record.begin_ts or 0
            for (table, key), versions in writers.items():
                if table != op.table:
                    continue
                if (lo is not None and key < lo) or (hi is not None and hi < key):
                    continue
                for commit_ts, writer in versions:
                    if commit_ts > read_ts:
                        add(record.txn_id, writer, "rw", (table, (lo, hi)))
    return edges


def random_history(seed: int) -> HistoryRecorder:
    rng = random.Random(seed)
    history = HistoryRecorder()
    clock = 1
    stamps = [0]  # commit timestamps handed out so far (0 = loaded data)
    for txn_id in range(1, rng.randint(4, 25)):
        history.on_begin(txn_id)
        begin_ts = clock
        history.on_snapshot(txn_id, begin_ts)

        def observed():
            return rng.choice(stamps + [None])

        for _ in range(rng.randint(1, 6)):
            table, key = rng.choice(TABLES), rng.choice(KEYS)
            roll = rng.random()
            if roll < 0.3:
                history.on_read(txn_id, table, key, observed())
            elif roll < 0.55:
                history.on_write(
                    txn_id, table, key,
                    kind=rng.choice(("write", "insert", "delete")),
                )
            else:
                lo = rng.choice((None,) + KEYS)
                hi = rng.choice((None,) + KEYS)
                if lo is not None and hi is not None and hi < lo:
                    lo, hi = hi, lo
                rows, flags, seen_stamps = [], [], []
                for row in KEYS:
                    if (lo is not None and row < lo) or (hi is not None and hi < row):
                        continue
                    if rng.random() < 0.4:
                        continue
                    rows.append(row)
                    flag = rng.choice(
                        (READ_RETURNED, READ_HIDDEN, RETURNED_UNREAD)
                    )
                    flags.append(flag)
                    if flag != RETURNED_UNREAD:
                        seen_stamps.append(observed())
                if rng.random() < 0.2:
                    history.on_scan(txn_id, table, (lo, hi), tuple(rows),
                                    begin_ts)
                else:
                    read_ts = None if rng.random() < 0.15 else begin_ts
                    history.on_scan_rows(
                        txn_id, table, (lo, hi), read_ts, tuple(rows),
                        "".join(flags), tuple(seen_stamps),
                    )
        clock += rng.randint(1, 3)
        if rng.random() < 0.8:
            history.on_commit(txn_id, clock)
            stamps.append(clock)
        else:
            history.on_abort(txn_id)
    return history


@pytest.mark.parametrize("seed", range(60))
def test_edges_match_brute_force(seed):
    history = random_history(seed)
    graph = build_mvsg(history)
    assert graph.edges == reference_edges(history)
    assert graph.nodes == {record.txn_id for record in history.committed()}


def test_unorderable_keys_fall_back_to_filtering():
    """A table mixing key types cannot be sorted; unbounded scans over
    it still find every newer writer."""
    history = HistoryRecorder()
    history.on_begin(1)
    history.on_snapshot(1, 1)
    history.on_scan_rows(1, "t", (None, None), 1, (), "", ())
    history.on_commit(1, 5)
    history.on_begin(2)
    history.on_snapshot(2, 2)
    history.on_write(2, "t", "text", kind="insert")
    history.on_write(2, "t", 7, kind="insert")
    history.on_commit(2, 6)
    graph = build_mvsg(history)
    assert graph.edges == reference_edges(history)
    assert DependencyEdge(1, 2, "rw", ("t", (None, None))) in graph.edges
