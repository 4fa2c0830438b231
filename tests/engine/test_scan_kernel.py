"""Engine-level behaviour of the chunked scan kernel (PR 10).

Covers what the storage tests cannot: the page-granularity SIREAD
threshold (bounded lock-table cost, phantom detection through coarse
probes), the incremental vacuum's ``vacuum_pause_events`` counter,
``scan_prefix`` — its first-N semantics and the cut-point guarantee
(inserts at or below the cut raise the rw edge, inserts past the cut
cannot change the answer and raise none) — and the incremental re-probe
rounds' materialisation bound.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database

from tests.conftest import fill


def make_db(**overrides) -> Database:
    return Database(EngineConfig(record_history=True, **overrides))


def fill_range(db, table, n, step=10):
    fill(db, table, {i * step: f"v{i}" for i in range(n)})


class TestVacuumPauseEvents:
    def test_counter_counts_latch_drops(self):
        db = make_db(vacuum_chunk_size=16)
        fill_range(db, "t", 100, step=1)
        writer = db.begin("si")
        for key in range(100):
            db.write(writer, "t", key, "updated")
        writer.commit()
        removed = db.vacuum()
        assert removed == 100  # every loaded version is below the horizon
        # 100 chains / 16 per hold = 7 holds -> 6 pauses.
        assert db.stats["vacuum_pause_events"] == 6

    def test_single_hold_config_never_pauses(self):
        db = make_db(vacuum_chunk_size=0)
        fill_range(db, "t", 50, step=1)
        writer = db.begin("si")
        for key in range(50):
            db.write(writer, "t", key, "updated")
        writer.commit()
        assert db.vacuum() == 50
        assert db.stats["vacuum_pause_events"] == 0


class TestPageThreshold:
    def test_wide_scan_lock_count_bounded(self):
        """A record-granularity SSI scan crossing the threshold covers
        leaf pages, not rows: lock-table size stays ~rows/page_order
        instead of ~2x rows."""
        db = make_db(scan_page_lock_threshold=8)
        fill_range(db, "t", 200, step=1)
        reader = db.begin("ssi")
        rows = db.scan(reader, "t")
        assert len(rows) == 200
        paged = db.locks.table_size()
        assert paged < 40  # ~200/64-order leaves, not 401 rec+gap locks
        db.abort(reader)
        db.cleanup_suspended()

        record_db = make_db(scan_page_lock_threshold=None)
        fill_range(record_db, "t", 200, step=1)
        reader = record_db.begin("ssi")
        record_db.scan(reader, "t")
        assert record_db.locks.table_size() > 200
        db.abort(reader)

    def test_narrow_scan_stays_record_granular(self):
        db = make_db(scan_page_lock_threshold=50)
        fill_range(db, "t", 10, step=1)
        reader = db.begin("ssi")
        db.scan(reader, "t")
        assert not reader.coarse_sireads
        db.abort(reader)

    def test_insert_after_page_scan_raises_rw_edge(self):
        """Phantom protection survives the coarsening: a writer inserting
        into the scanned range probes the reader's page SIREADs."""
        db = make_db(scan_page_lock_threshold=4)
        fill_range(db, "t", 20, step=10)
        reader = db.begin("ssi")
        db.scan(reader, "t")
        assert reader.coarse_sireads
        writer = db.begin("ssi")
        db.insert(writer, "t", 55, "phantom")
        writer.commit()
        assert reader.out_conflict, "page SIREAD missed the phantom insert"
        assert writer.in_conflict
        db.abort(reader)


class TestScanPrefixSemantics:
    def test_first_n_matches_scan_with_limit(self):
        db = make_db()
        fill_range(db, "t", 12)
        txn = db.begin("ssi")
        assert db.scan_prefix(txn, "t", limit=5) == db.scan(
            txn, "t", limit=5
        )
        db.abort(txn)

    def test_limit_zero_returns_nothing(self):
        db = make_db()
        fill_range(db, "t", 5)
        txn = db.begin("ssi")
        assert db.scan_prefix(txn, "t", limit=0) == []
        db.abort(txn)

    def test_limit_beyond_range_returns_all(self):
        db = make_db()
        fill_range(db, "t", 4)
        txn = db.begin("ssi")
        rows = db.scan_prefix(txn, "t", limit=100)
        assert [key for key, _ in rows] == [0, 10, 20, 30]
        db.abort(txn)

    def test_skips_invisible_rows_when_counting(self):
        """Tombstoned rows are examined (and locked) but do not count
        toward the limit — the result is the first N *visible* rows."""
        db = make_db()
        fill_range(db, "t", 6)
        deleter = db.begin("si")
        db.delete(deleter, "t", 10)
        deleter.commit()
        txn = db.begin("ssi")
        rows = db.scan_prefix(txn, "t", limit=3)
        assert [key for key, _ in rows] == [0, 20, 30]
        db.abort(txn)

    def test_own_write_fallback_sees_pending_insert(self):
        db = make_db()
        fill_range(db, "t", 4)
        txn = db.begin("ssi")
        db.insert(txn, "t", 15, "mine")
        rows = db.scan_prefix(txn, "t", limit=3)
        assert [key for key, _ in rows] == [0, 10, 15]
        db.abort(txn)


class TestScanPrefixCutPoint:
    """The satellite's interleaving guarantee: reader takes the first 3
    of {10,20,30,40,50}; a concurrent insert at or below the cut key (30)
    lands in a locked gap and raises the rw-antidependency, while an
    insert strictly past the cut leaves the reader untouched — it cannot
    change what "the first 3 visible rows" were."""

    def setup_reader(self):
        db = make_db()
        fill(db, "t", {10: "a", 20: "b", 30: "c", 40: "d", 50: "e"})
        reader = db.begin("ssi")
        rows = db.scan_prefix(reader, "t", limit=3)
        assert [key for key, _ in rows] == [10, 20, 30]
        return db, reader

    @pytest.mark.parametrize("phantom_key", [5, 15, 25, 30 - 1])
    def test_insert_at_or_below_cut_is_detected(self, phantom_key):
        db, reader = self.setup_reader()
        writer = db.begin("ssi")
        db.insert(writer, "t", phantom_key, "phantom")
        writer.commit()
        assert reader.out_conflict, (
            f"insert of {phantom_key} below the cut point must raise the "
            "reader->writer rw edge"
        )
        assert writer.in_conflict
        db.abort(reader)

    @pytest.mark.parametrize("phantom_key", [35, 45, 60])
    def test_insert_past_cut_is_admitted(self, phantom_key):
        db, reader = self.setup_reader()
        writer = db.begin("ssi")
        db.insert(writer, "t", phantom_key, "later")
        writer.commit()
        assert not reader.out_conflict, (
            f"insert of {phantom_key} past the cut cannot affect the "
            "prefix and must not raise an edge"
        )
        reader.commit()

    def test_exhausted_prefix_locks_boundary_gap(self):
        """When the range runs out before the limit, the boundary gap is
        locked exactly like a full scan — appends are still phantoms."""
        db, reader = self.setup_reader()
        rows = db.scan_prefix(reader, "t", lo=40, hi=None, limit=10)
        assert [key for key, _ in rows] == [40, 50]
        writer = db.begin("ssi")
        db.insert(writer, "t", 70, "append")
        writer.commit()
        assert reader.out_conflict
        db.abort(reader)


def count_materialised(table) -> dict:
    """Wrap ``table.scan_chunks`` to count its calls and the rows it
    yields (the scan's materialisation cost)."""
    real = table.scan_chunks
    counts = {"calls": 0, "rows": 0}

    def counted(lo, hi, chunk_size=None):
        counts["calls"] += 1
        for chunk in real(lo, hi, chunk_size):
            counts["rows"] += len(chunk)
            yield chunk

    table.scan_chunks = counted
    return counts


class TestIncrementalReprobe:
    """Re-probe rounds fetch only the keys added to the range since the
    last key-set sample, so a scan's materialisation is bounded by the
    range plus the inserts that landed during it, whatever the number of
    rounds."""

    def test_scan_beside_insert_stream_reads_range_plus_inserts(self):
        db = make_db()
        fill_range(db, "t", 400, step=10)
        fill(db, "other", {0: 0})
        table = db.table("t")
        counts = count_materialised(table)
        log_reads = []
        real_inserted_since = table.inserted_since

        def counted_inserted_since(stamp, lo, hi):
            log_reads.append(stamp)
            return real_inserted_since(stamp, lo, hi)

        table.inserted_since = counted_inserted_since
        stop = threading.Event()

        def insert_stream():
            key = 1
            while not stop.is_set():
                writer = db.begin("ssi")
                db.read(writer, "other", 0)
                db.insert(writer, "t", key, "new")
                db.commit(writer)
                key += 10

        thread = threading.Thread(target=insert_stream)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            raced = 0
            while raced < 3 and time.monotonic() < deadline:
                counts["calls"] = counts["rows"] = 0
                before = table.keyset_version
                in_range = len(table)
                reader = db.begin("ssi")
                db.scan(reader, "t")
                inserted = table.keyset_version - before
                db.abort(reader)
                assert counts["calls"] == 1
                assert counts["rows"] <= in_range + inserted
                if inserted:
                    raced += 1
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert raced >= 3, "no scan overlapped the insert stream"
        assert log_reads, "no re-probe round ran"

    def test_vacuum_only_keyset_change_rematerialises_nothing(self):
        db = make_db()
        fill_range(db, "t", 10, step=10)
        deleter = db.begin("si")
        db.delete(deleter, "t", 50)
        deleter.commit()
        table = db.table("t")
        counts = count_materialised(table)
        reader = db.begin("ssi")
        real_batch = db.locks.acquire_read_batch
        batches = []

        def vacuum_in_window(txn, resources, mode):
            if txn is reader:
                batches.append(len(resources))
                if len(batches) == 1:
                    assert db.vacuum() >= 2  # the tombstone and the row
            return real_batch(txn, resources, mode)

        db.locks.acquire_read_batch = vacuum_in_window
        before = table.keyset_version
        rows = db.scan(reader, "t", 0, 90)
        assert table.keyset_version != before, "vacuum removed no key"
        assert [key for key, _ in rows] == [0, 10, 20, 30, 40, 60, 70, 80, 90]
        assert counts["calls"] == 1
        assert len(batches) == 1  # no second lock round
        db.abort(reader)
