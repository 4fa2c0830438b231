"""Execution history recording.

The engine (when configured with ``record_history=True``) reports every
read, write, insert, delete and predicate scan of every transaction here,
along with the *version* involved — enough information to rebuild the
multiversion serialization graph offline.  A scan is one
:class:`ScanRecord` holding its bounds and the version stamp of every row
it examined, not one record per row.  This is the paper's
"after-the-fact analysis" idea (Section 3.1.1), repurposed as a test
oracle rather than a developer tool.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, ClassVar, Hashable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One recorded point operation.

    ``kind`` is one of ``read``, ``write``, ``insert``, ``delete``.  For
    reads, ``version_ts`` is the commit timestamp of the version
    observed (0 = bulk-loaded initial data, None = no version visible).
    """

    kind: str
    table: str
    key: Any
    version_ts: int | None = None


#: :attr:`ScanRecord.flags` characters, one per examined key
READ_RETURNED = "r"  #: version read, a live row returned
READ_HIDDEN = "h"  #: version read (or none visible), no row returned
RETURNED_UNREAD = "s"  #: row returned with no version read recorded here


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One predicate scan as a single entry.

    ``key`` holds the ``(lo, hi)`` bounds and ``version_ts`` the
    snapshot's read timestamp; a scan run without a snapshot (S2PL,
    SGT) has ``version_ts`` None and contributes its row reads only, no
    predicate read.  ``rows`` lists every key the scan examined in scan
    order, ``flags`` carries one character per key (:data:`READ_RETURNED`,
    :data:`READ_HIDDEN`, :data:`RETURNED_UNREAD` — the transaction's own
    write, or a row whose read was recorded as its own entry), and
    ``stamps`` the observed version's commit timestamp of each *read*
    key in order (None = no version visible).  Expanded, the entry is
    exactly the point reads plus the predicate read the scan made.
    """

    table: str
    key: tuple
    version_ts: int | None
    rows: tuple = ()
    flags: str = ""
    stamps: tuple = ()

    kind: ClassVar[str] = "scan"

    @property
    def seen_keys(self) -> tuple:
        """The keys whose rows the scan returned, in scan order."""
        return tuple(
            key for key, flag in zip(self.rows, self.flags)
            if flag != READ_HIDDEN
        )

    def read_rows(self) -> Iterator[tuple[Hashable, int | None]]:
        """``(key, version_ts)`` of every version read the scan made."""
        stamps = iter(self.stamps)
        for key, flag in zip(self.rows, self.flags):
            if flag != RETURNED_UNREAD:
                yield key, next(stamps)

    def reads(self) -> Iterator[OpRecord]:
        table = self.table
        for key, stamp in self.read_rows():
            yield OpRecord("read", table, key, version_ts=stamp)


@dataclass(slots=True)
class TxnRecord:
    """Everything recorded about one transaction."""

    txn_id: int
    begin_ts: int | None = None
    commit_ts: int | None = None
    status: str = "active"  # active | committed | aborted
    ops: list[OpRecord | ScanRecord] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    def reads(self) -> Iterator[OpRecord]:
        """Every point read, a scan's row reads included."""
        for op in self.ops:
            if op.kind == "read":
                yield op
            elif op.kind == "scan":
                yield from op.reads()

    def writes(self) -> Iterable[OpRecord]:
        return (op for op in self.ops if op.kind in ("write", "insert", "delete"))

    def scans(self) -> Iterable[ScanRecord]:
        """Predicate reads: the scans made against a snapshot."""
        return (
            op for op in self.ops
            if op.kind == "scan" and op.version_ts is not None
        )


class HistoryRecorder:
    """Accumulates per-transaction operation logs.

    Thread-safe: engine callbacks arrive from concurrent client threads
    outside any engine latch, so a private leaf lock guards the
    transaction map and the per-transaction op lists.
    """

    def __init__(self):
        self.transactions: dict[int, TxnRecord] = {}
        self._lock = threading.Lock()

    # Engine callbacks ---------------------------------------------------

    def on_begin(self, txn_id: int) -> None:
        with self._lock:
            self.transactions[txn_id] = TxnRecord(txn_id=txn_id)

    def on_snapshot(self, txn_id: int, read_ts: int) -> None:
        with self._lock:
            record = self.transactions.get(txn_id)
            if record is not None and record.begin_ts is None:
                record.begin_ts = read_ts

    def on_read(self, txn_id: int, table: str, key: Hashable, version_ts: int | None) -> None:
        self._append(txn_id, OpRecord("read", table, key, version_ts=version_ts))

    def on_write(self, txn_id: int, table: str, key: Hashable, kind: str = "write") -> None:
        self._append(txn_id, OpRecord(kind, table, key))

    def on_scan(
        self,
        txn_id: int,
        table: str,
        bounds: tuple,
        seen_keys: tuple,
        read_ts: int,
    ) -> None:
        """A predicate read whose row reads were reported one by one."""
        self._append(txn_id, ScanRecord(
            table, bounds, read_ts, tuple(seen_keys),
            RETURNED_UNREAD * len(seen_keys),
        ))

    def on_scan_rows(
        self,
        txn_id: int,
        table: str,
        bounds: tuple,
        read_ts: int | None,
        rows: tuple,
        flags: str,
        stamps: tuple,
    ) -> None:
        """A scan and all its row reads as one entry (see
        :class:`ScanRecord` for the fields)."""
        self._append(
            txn_id, ScanRecord(table, bounds, read_ts, rows, flags, stamps)
        )

    def on_commit(self, txn_id: int, commit_ts: int) -> None:
        with self._lock:
            record = self.transactions.get(txn_id)
            if record is not None:
                record.commit_ts = commit_ts
                record.status = "committed"

    def on_abort(self, txn_id: int) -> None:
        with self._lock:
            record = self.transactions.get(txn_id)
            if record is not None:
                record.status = "aborted"

    # Queries -------------------------------------------------------------

    def committed(self) -> list[TxnRecord]:
        return [record for record in self.transactions.values() if record.committed]

    def snapshot_records(self) -> list[TxnRecord]:
        """Consistent copies of every record (op lists copied too) —
        safe to serialise or relabel while the engine keeps running."""
        with self._lock:
            return [
                TxnRecord(
                    txn_id=record.txn_id,
                    begin_ts=record.begin_ts,
                    commit_ts=record.commit_ts,
                    status=record.status,
                    ops=list(record.ops),
                )
                for record in self.transactions.values()
            ]

    def __len__(self) -> int:
        return len(self.transactions)

    def _append(self, txn_id: int, op: OpRecord | ScanRecord) -> None:
        with self._lock:
            record = self.transactions.get(txn_id)
            if record is None:
                record = self.transactions[txn_id] = TxnRecord(txn_id=txn_id)
            record.ops.append(op)
