"""One history entry per scan, and its trip over the wire.

A chunked-kernel scan records a single
:class:`~repro.sgt.history.ScanRecord`.  Expanded, it must be exactly
the ``(table, key, version_ts)`` point reads the scan resolved — the
per-row scan path (``scan_kernel=False``), which reports each row read
as its own entry, is the reference — plus the predicate read.  A sharded
scan over tuple keys must come back from ``dump_history`` with hashable
keys and feed the merged-MVSG oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import KeyNotFoundError
from repro.sgt.history import ScanRecord
from repro.shard import PartitionMap, ShardCluster
from repro.shard.audit import check_merged_serializable


def build(scan_kernel: bool, seed: int) -> tuple[Database, list]:
    """Run one seeded scenario and return the database plus what each
    scan returned: committed updates, deletes and inserts, then readers
    at three levels scanning random ranges beside their own writes."""
    rng = random.Random(seed)
    db = Database(EngineConfig(record_history=True, scan_kernel=scan_kernel))
    db.create_table("t")
    db.load("t", [((key, key % 3), f"v{key}") for key in range(0, 40, 2)])
    for _ in range(6):
        writer = db.begin("si")
        for _ in range(3):
            key = (rng.randrange(40), rng.randrange(3))
            roll = rng.random()
            if roll < 0.4:
                db.write(writer, "t", key, "upd")
            elif roll < 0.7:
                try:
                    db.delete(writer, "t", key)
                except KeyNotFoundError:
                    pass
            else:
                db.write(writer, "t", key, "new")
        db.commit(writer)
    results = []
    for level in ("ssi", "si", "s2pl"):
        reader = db.begin(level)
        own = (rng.randrange(40), 1)
        db.write(reader, "t", own, "own")
        for _ in range(3):
            lo = (rng.randrange(40), 0)
            hi = (lo[0] + rng.randrange(1, 20), 2)
            results.append(db.scan(reader, "t", lo, hi))
        db.commit(reader)
    return db, results


def reads_of(db: Database) -> dict:
    return {
        txn_id: sorted(
            ((op.table, op.key, op.version_ts) for op in record.reads()),
            key=repr,
        )
        for txn_id, record in db.history.transactions.items()
    }


def scans_of(db: Database) -> dict:
    return {
        txn_id: [(op.key, op.version_ts, op.seen_keys)
                 for op in record.scans()]
        for txn_id, record in db.history.transactions.items()
    }


@pytest.mark.parametrize("seed", range(8))
def test_batched_entry_expands_to_the_rows_resolved(seed):
    kernel, kernel_rows = build(True, seed)
    per_row, per_row_rows = build(False, seed)
    assert kernel_rows == per_row_rows
    assert reads_of(kernel) == reads_of(per_row)
    assert scans_of(kernel) == scans_of(per_row)
    # One entry per scan: a kernel scan leaves no separate read records.
    for record in kernel.history.transactions.values():
        assert all(op.kind != "read" for op in record.ops)


def test_entry_matches_the_version_store():
    db = Database(EngineConfig(record_history=True))
    db.create_table("t")
    db.load("t", [(key, key) for key in range(10)])
    writer = db.begin("si")
    db.write(writer, "t", 3, "new")
    db.delete(writer, "t", 4)
    db.commit(writer)
    reader = db.begin("ssi")
    db.write(reader, "t", 6, "mine")
    rows = db.scan(reader, "t", 2, 7)
    db.commit(reader)
    (scan,) = [op for op in db.history.transactions[reader.id].ops
               if op.kind == "scan"]
    assert isinstance(scan, ScanRecord)
    assert scan.key == (2, 7)
    assert scan.version_ts == reader.read_ts
    table = db.table("t")
    expected = []
    for key in (2, 3, 4, 5, 7):  # 6 is answered from the write set
        version = table.chain(key).visible(reader.read_ts)
        expected.append((key, version.commit_ts))
    assert list(scan.read_rows()) == expected
    assert scan.seen_keys == tuple(key for key, _value in rows)
    assert scan.seen_keys == (2, 3, 5, 6, 7)


def test_sharded_tuple_key_scan_survives_the_wire():
    pmap = PartitionMap(2, {"t": [(5, "m")]})
    with ShardCluster(pmap, workers=2) as cluster:
        coordinator = cluster.coordinator
        coordinator.create_table("t")
        coordinator.load("t", [((key, tag), key) for key in range(10)
                               for tag in ("a", "z")])
        writer = coordinator.begin("ssi")
        coordinator.write(writer, "t", (2, "a"), 100)
        coordinator.write(writer, "t", (8, "z"), 100)
        coordinator.commit(writer)
        reader = coordinator.begin("ssi")
        rows = coordinator.scan(reader, "t", (1, "a"), (9, "a"))
        assert [key for key, _value in rows] == sorted(
            (key, tag) for key in range(1, 9) for tag in ("a", "z")
        ) + [(9, "a")]
        assert dict(rows)[(2, "a")] == 100
        coordinator.commit(reader)
        histories = coordinator.shard_histories()
        scans = [op for records, _gtids in histories for record in records
                 for op in record.ops if op.kind == "scan"]
        assert len(scans) == 2  # one entry per shard the scan touched
        for scan in scans:
            assert scan.key == ((1, "a"), (9, "a"))
            assert all(isinstance(key, tuple) for key in scan.rows)
        seen = sorted(key for scan in scans for key in scan.seen_keys)
        assert seen == [key for key, _value in rows]
        report = check_merged_serializable(histories)
        assert report.serializable, report.describe()
        assert reader.id in report.graph.nodes
        wr = {(edge.src, edge.dst, edge.kind) for edge in report.graph.edges}
        assert (writer.id, reader.id, "wr") in wr
