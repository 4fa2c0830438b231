"""Regression tests for review-found races in the fine-grained latching PR.

Three distinct windows, each made deterministic here:

* the scan materialise->lock window: a writer whose whole lock lifetime
  (acquire, commit, finalize-release) fits between ``scan_chains`` and
  the batch read-lock acquire used to be invisible to phantom detection;
* the ``LockRequest`` subscribe-vs-resolve race: an unsynchronised
  check-then-append could land a waiter's callback on the already
  swapped-out list, hanging the client thread forever;
* the engine-side wait loop now also terminates on a resolved request
  even if the wakeup event were somehow lost.

The scan window also has incremental re-probe rounds: inserts landing
in a later round are found through the table's insert log, and a log
too short to reach back falls back to re-materialising the range.
"""

from __future__ import annotations

import threading

import pytest

from repro.locking.manager import LockRequest, LockMode, RequestState
from repro.storage.table import Table

from tests.conftest import fill


def _inject_committed_insert(db, table, level, key, value, writer_reads=None):
    """Patch the table's materialisation entry points — ``scan_chains``
    (the per-row path) *and* ``scan_chunks`` (the chunked kernel) — so
    the *first* call materialises the key set, then runs a complete
    writer lifecycle (begin, optional reads, insert, commit, finalize —
    every lock acquired *and released*) before returning the now-stale
    list.  Later calls see the real tree.  Returns the writer
    transactions list (filled on trigger)."""
    real_chains = table.scan_chains
    real_chunks = table.scan_chunks
    state = {"fired": False}
    writers = []

    def fire():
        if not state["fired"]:
            state["fired"] = True
            writer = db.begin(level)
            for read_key in writer_reads or ():
                db.read(writer, table.name, read_key)
            db.insert(writer, table.name, key, value)
            db.commit(writer)  # prepare + finalize: all locks released
            writers.append(writer)

    def patched_chains(lo, hi):
        stale = real_chains(lo, hi)
        fire()
        return stale

    def patched_chunks(lo, hi, chunk_size=None):
        stale = list(real_chunks(lo, hi, chunk_size))
        fire()
        return iter(stale)

    table.scan_chains = patched_chains
    table.scan_chunks = patched_chunks
    return writers


@pytest.fixture(params=[True, False], ids=["kernel", "per_row"])
def scan_kernel(request, db):
    db.config.scan_kernel = request.param
    return request.param


class TestScanMaterializeWindow:
    def test_s2pl_scan_sees_insert_committed_in_window(self, db, scan_kernel):
        """S2PL reads current state: a row committed inside the
        materialise->lock window must appear in the scan result."""
        fill(db, "t", {1: "a", 5: "b"})
        table = db.table("t")
        scanner = db.begin("s2pl")
        _inject_committed_insert(db, table, "s2pl", 3, "x")
        rows = db.scan(scanner, "t", 1, 5)
        assert rows == [(1, "a"), (3, "x"), (5, "b")]
        # The relock round covered the fresh key with read locks.
        assert db.locks.holds(scanner, db._rec_resource("t", 3), LockMode.SHARED)
        scanner.commit()

    def test_ssi_scan_marks_rw_edge_for_window_insert(self, db, scan_kernel):
        """SSI: the scanner's snapshot ignores the in-window committed
        insert, but the reader->writer rw-antidependency must still be
        recorded via the newer-version check on the re-materialised
        chain (Fig 3.4 lines 8-9)."""
        fill(db, "t", {1: "a", 5: "b"})
        table = db.table("t")
        scanner = db.begin("ssi")
        db.read(scanner, "t", 1)  # pin the snapshot before the writer runs
        # The writer reads too, so its record is suspended (findable)
        # after finalize rather than dropped.
        writers = _inject_committed_insert(
            db, table, "ssi", 3, "x", writer_reads=[5]
        )
        rows = db.scan(scanner, "t", 1, 5)
        assert rows == [(1, "a"), (5, "b")]  # snapshot: phantom invisible
        (writer,) = writers
        assert scanner.out_conflict, "reader->writer rw edge was lost"
        assert writer.in_conflict
        db.abort(scanner)

    def test_ssi_page_path_marks_rw_edge_for_window_insert(self, db):
        """The page-granularity scan path owes the same window guarantee:
        with the threshold forced to 0 every SSI scan covers leaf pages
        up front, and the in-window committed insert must still produce
        the reader->writer rw edge (keyset re-probe -> re-materialise ->
        newer-version check)."""
        db.config.scan_page_lock_threshold = 0
        fill(db, "t", {1: "a", 5: "b"})
        table = db.table("t")
        scanner = db.begin("ssi")
        db.read(scanner, "t", 1)
        writers = _inject_committed_insert(
            db, table, "ssi", 3, "x", writer_reads=[5]
        )
        rows = db.scan(scanner, "t", 1, 5)
        assert rows == [(1, "a"), (5, "b")]
        (writer,) = writers
        assert scanner.out_conflict, "reader->writer rw edge was lost"
        assert writer.in_conflict
        db.abort(scanner)


class TestLockRequestResolveRace:
    class _Owner:
        def __init__(self, owner_id):
            self.id = owner_id

    def test_subscribe_after_resolution_fires_immediately(self):
        request = LockRequest(self._Owner(1), ("t", 1), LockMode.SHARED)
        request._resolve(RequestState.GRANTED)
        fired = []
        request.on_resolve(fired.append)
        assert fired == [request]

    def test_subscribe_before_resolution_fires_once(self):
        request = LockRequest(self._Owner(1), ("t", 1), LockMode.SHARED)
        fired = []
        request.on_resolve(fired.append)
        request._resolve(RequestState.DENIED, None)
        assert fired == [request]

    def test_concurrent_subscribe_and_resolve_never_drops_callback(self):
        """Hammer the subscribe/resolve interleaving: whichever side wins,
        the callback must fire exactly once (the original unsynchronised
        check-then-append could drop it, hanging the waiter)."""
        for i in range(500):
            request = LockRequest(self._Owner(i), ("t", i), LockMode.SHARED)
            fired = []
            barrier = threading.Barrier(2)

            def subscribe():
                barrier.wait()
                request.on_resolve(fired.append)

            def resolve():
                barrier.wait()
                request._resolve(RequestState.GRANTED)

            threads = [
                threading.Thread(target=subscribe),
                threading.Thread(target=resolve),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert fired == [request]


class TestCancelVsResolveRace:
    """``cancel_request`` racing a grant must settle on exactly one
    terminal state — through the full Database API, where the loser of
    the race used to double-resolve and emit a spurious deny trace."""

    def test_timeout_cancel_racing_commit_grant(self):
        from repro.engine.config import EngineConfig
        from repro.engine.database import Database
        from repro.errors import TransactionAbortedError
        from repro.locking.manager import record_resource

        for i in range(25):
            db = Database(EngineConfig())
            fill(db, "t", {"k": 0})
            holder = db.begin("s2pl")
            holder.read_for_update("t", "k")
            waiter = db.begin("s2pl")
            result = db.locks.acquire_nowait(
                waiter, record_resource("t", "k"), LockMode.SHARED)
            request = result.request
            fired = []
            request.on_resolve(lambda r: fired.append(r.state))
            barrier = threading.Barrier(2)

            def cancel():
                barrier.wait()
                db.cancel_lock_request(request)

            def grant():
                barrier.wait()
                holder.commit()

            threads = [threading.Thread(target=cancel),
                       threading.Thread(target=grant)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(fired) == 1, "exactly one terminal state"
            assert fired == [request.state]
            if request.state is RequestState.DENIED:
                # the timeout won: the waiter is doomed and aborts cleanly
                assert waiter.doom_error is not None
                with pytest.raises(TransactionAbortedError):
                    waiter.read("t", "k")
            else:
                assert waiter.doom_error is None
                waiter.commit()
            db.cleanup_suspended()
            assert db.locks.table_size() == 0
            assert len(db.locks._waiting) == 0


class TestRetainAllReadsFastPath:
    def test_pure_siread_owner_is_retained(self, db):
        fill(db, "t", {1: "a"})
        reader = db.begin("ssi")
        assert db.read(reader, "t", 1) == "a"
        assert db.locks.retain_all_reads(reader) is True
        assert db.locks.holds_any_siread(reader)

    def test_shared_reader_takes_full_release_path(self, db):
        fill(db, "t", {1: "a"})
        reader = db.begin("s2pl")
        assert db.read(reader, "t", 1) == "a"
        assert db.locks.retain_all_reads(reader) is False
        reader.commit()


def _insert_before_lock_rounds(db, scanner, table, keys, level):
    """Before the scanner's i-th read-lock batch lands, run a complete
    writer lifecycle inserting ``keys[i]`` (every lock acquired and
    released before the batch).  Returns the writer transactions."""
    real_batch = db.locks.acquire_read_batch
    rounds = []
    writers = []

    def patched(txn, resources, mode):
        if txn is scanner:
            index = len(rounds)
            rounds.append(len(resources))
            if index < len(keys):
                writer = db.begin(level)
                db.read(writer, table.name, 1000)  # findable after commit
                db.insert(writer, table.name, keys[index], "x")
                db.commit(writer)
                writers.append(writer)
        return real_batch(txn, resources, mode)

    db.locks.acquire_read_batch = patched
    return writers, rounds


def _count_materialisations(table):
    real = table.scan_chunks
    calls = []

    def counted(lo, hi, chunk_size=None):
        calls.append((lo, hi))
        return real(lo, hi, chunk_size)

    table.scan_chunks = counted
    return calls


class TestIncrementalReprobeRounds:
    """Re-probe rounds after the first lock only the keys the insert log
    reports added since the previous key-set sample.  Each insert below
    lands in the gap the previous one created, before the scanner holds
    that gap, so only the log can reveal it."""

    @pytest.mark.parametrize("level", ["ssi", "s2pl"])
    def test_insert_during_second_round_is_detected(self, db, level):
        fill(db, "t", {1: "a", 5: "b", 1000: "far"})
        table = db.table("t")
        materialised = _count_materialisations(table)
        scanner = db.begin(level)
        writers, rounds = _insert_before_lock_rounds(
            db, scanner, table, [4, 3], level
        )
        rows = db.scan(scanner, "t", 1, 5)
        assert len(writers) == 2 and len(rounds) == 3
        assert len(materialised) == 1, "a re-probe round re-walked the range"
        if level == "s2pl":
            assert rows == [(1, "a"), (3, "x"), (4, "x"), (5, "b")]
            for key in (3, 4):
                assert db.locks.holds(
                    scanner, db._rec_resource("t", key), LockMode.SHARED
                )
        else:
            assert rows == [(1, "a"), (5, "b")]
            assert scanner.out_conflict
            for writer in writers:
                assert writer.in_conflict, "second-round insert was missed"
        db.abort(scanner)

    @pytest.mark.parametrize("level", ["ssi", "s2pl"])
    def test_short_insert_log_falls_back_to_rematerialising(
        self, db, level, monkeypatch
    ):
        monkeypatch.setattr(Table, "INSERT_LOG_CAPACITY", 1)
        fill(db, "t", {1: "a", 5: "b", 1000: "far"})
        table = db.table("t")
        materialised = _count_materialisations(table)
        scanner = db.begin(level)
        real_batch = db.locks.acquire_read_batch
        writers = []

        def two_inserts_in_window(txn, resources, mode):
            if txn is scanner and not writers:
                for key in (4, 3):
                    writer = db.begin(level)
                    db.read(writer, "t", 1000)
                    db.insert(writer, "t", key, "x")
                    db.commit(writer)
                    writers.append(writer)
            return real_batch(txn, resources, mode)

        db.locks.acquire_read_batch = two_inserts_in_window
        rows = db.scan(scanner, "t", 1, 5)
        assert len(materialised) == 2, "the log could not reach back"
        if level == "s2pl":
            assert rows == [(1, "a"), (3, "x"), (4, "x"), (5, "b")]
        else:
            assert rows == [(1, "a"), (5, "b")]
            assert all(writer.in_conflict for writer in writers)
        db.abort(scanner)

    def test_bulk_load_in_window_rematerialises(self, db):
        """A bulk load is not in the insert log; it raises the log's
        floor, so the next round re-walks the range and sees the row."""
        fill(db, "t", {1: "a", 5: "b"})
        table = db.table("t")
        materialised = _count_materialisations(table)
        scanner = db.begin("ssi")
        real_batch = db.locks.acquire_read_batch

        def load_in_window(txn, resources, mode):
            if txn is scanner and len(materialised) == 1:
                db.load("t", [(3, "loaded")])
            return real_batch(txn, resources, mode)

        db.locks.acquire_read_batch = load_in_window
        rows = db.scan(scanner, "t", 1, 5)
        assert len(materialised) == 2
        assert rows == [(1, "a"), (3, "loaded"), (5, "b")]
        assert db.locks.holds(
            scanner, db._rec_resource("t", 3), LockMode.SIREAD
        )
        db.abort(scanner)
