"""Versioned tables.

A :class:`Table` maps orderable primary keys to
:class:`~repro.mvcc.version.VersionChain` objects through a B+-tree, and
answers the successor queries that drive gap locking.  A key stays in the
tree while any version (including a tombstone) of it survives, so that
concurrent snapshots keep seeing their versions; garbage collection prunes
chains against the oldest active snapshot.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Hashable, Iterator

from repro.engine.latches import make_latch
from repro.mvcc.version import Version, VersionChain
from repro.storage.btree import SUPREMUM, BPlusTree


class Table:
    """A named, versioned, ordered key/value table.

    Every method is internally guarded by the table's latch (rank
    ``table`` in the engine hierarchy): B+-tree lookups race structurally
    with node splits, so even reads must exclude tree mutation.  The
    latch is re-entrant and public — the engine takes it around compound
    sections (successor probe + gap lock + chain creation on insert;
    the version-install loop at commit) so they are atomic against
    concurrent scans of the same table.

    Args:
        name: table name, used in lock resources and error messages.
        page_size: B+-tree node order; only meaningful for page-granularity
            locking, where it controls contention (smaller pages -> fewer
            keys per page -> fewer false conflicts).
    """

    def __init__(self, name: str, page_size: int = 64):
        self.name = name
        self._tree = BPlusTree(order=page_size)
        self.latch = make_latch(f"table[{name}]")
        #: Bumped (under the latch) whenever the *key set* changes — new
        #: chain added or vacuumed away.  Scans compare it across their
        #: materialise->lock window to decide whether a re-scan is owed;
        #: reading it is a GIL-atomic latch-free int probe.
        self.keyset_version = 0
        #: ``(keyset_version, key)`` of the most recent chain additions,
        #: oldest first, capped at :attr:`INSERT_LOG_CAPACITY`.  Lets a
        #: scan's re-probe round fetch just the keys added since its last
        #: sample (:meth:`inserted_since`) instead of re-walking the range.
        self._inserts: deque[tuple[int, Hashable]] = deque()
        #: the log holds every addition stamped above this version
        self._insert_floor = 0

    #: insert-log entries kept per table; older ones are forgotten and a
    #: scan asking past them re-materialises its range instead
    INSERT_LOG_CAPACITY = 1024

    # ------------------------------------------------------------- chains

    def chain(self, key: Hashable) -> VersionChain | None:
        """The version chain for ``key``, or None if never written."""
        with self.latch:
            return self._tree.get(key)

    def ensure_chain(self, key: Hashable) -> tuple[VersionChain, list[int]]:
        """Get-or-create the chain for ``key``.

        Returns (chain, touched_page_ids); the page list is non-empty only
        when the key was newly added (page-granularity conflict modelling).
        """
        with self.latch:
            chain = self._tree.get(key)
            if chain is not None:
                return chain, []
            chain = VersionChain()
            touched = self._tree.insert(key, chain)
            self.keyset_version += 1
            if len(self._inserts) >= self.INSERT_LOG_CAPACITY:
                self._insert_floor = self._inserts.popleft()[0]
            self._inserts.append((self.keyset_version, key))
            return chain, touched

    def load(self, key: Hashable, value: Any) -> None:
        """Bulk-load initial data at timestamp 0 (visible to everyone).

        A loaded key is not put in the insert log; the log's floor moves
        past it instead, so a scan whose re-probe spans a load
        re-materialises its range rather than miss the key."""
        with self.latch:
            chain = self._tree.get(key)
            if chain is None:
                chain = VersionChain()
                self._tree.insert(key, chain)
                self.keyset_version += 1
                self._insert_floor = self.keyset_version
            chain.install(Version(value=value, commit_ts=0, creator_id=0))

    # ------------------------------------------------------------ queries

    def successor(self, key: Hashable) -> Hashable:
        """The next key after ``key`` (SUPREMUM past the end) — the
        gap-lock target for reads/writes of ``key`` (Fig 3.6/3.7)."""
        with self.latch:
            return self._tree.successor(key)

    def first_key(self) -> Hashable:
        with self.latch:
            return self._tree.first_key()

    def scan_chains(
        self, lo: Hashable | None, hi: Hashable | None
    ) -> list[tuple[Hashable, VersionChain]]:
        """Materialised ordered scan of chains with keys in [lo, hi]."""
        with self.latch:
            return list(self._tree.range(lo, hi))

    def inserted_since(
        self, stamp: int, lo: Hashable | None, hi: Hashable | None
    ) -> list[tuple[Hashable, VersionChain]] | None:
        """The chains of keys in ``[lo, hi]`` added after ``keyset_version``
        read ``stamp``, in key order, or None when the insert log no longer
        reaches back that far.

        Keys vacuumed away since their addition are left out; a key
        removed and added again comes back with its current chain.
        Removals are not logged, so the answer is exactly the keys of
        ``[lo, hi]`` present now that were absent (or a different chain)
        at ``stamp`` — the only keys a caller who had the range's key set
        at ``stamp`` is missing.
        """
        with self.latch:
            if stamp < self._insert_floor:
                return None
            fresh = set()
            for added, key in reversed(self._inserts):
                if added <= stamp:
                    break
                if (lo is None or not key < lo) and (hi is None or not hi < key):
                    fresh.add(key)
            pairs = []
            for key in fresh:
                chain = self._tree.get(key)
                if chain is not None:
                    pairs.append((key, chain))
        pairs.sort(key=itemgetter(0))
        return pairs

    def scan_chunks(
        self,
        lo: Hashable | None,
        hi: Hashable | None,
        chunk_size: int | None = None,
    ) -> Iterator[list[tuple[Hashable, VersionChain]]]:
        """Ordered scan of ``[lo, hi]`` in latch-bounded batches.

        Unlike :meth:`scan_chains`, the table latch is held only while one
        chunk (at most ``chunk_size`` pairs, default the tree's page
        order) is collected, then dropped before the chunk is yielded —
        writers and other scans proceed between chunks.  The walk resumes
        strictly after the previous chunk's last key, so:

        * a key present for the whole scan is yielded exactly once;
        * keys added/removed concurrently may or may not appear — the same
          contract a single-latch-hold materialisation gives a *snapshot*
          reader, because chains added mid-scan only carry versions newer
          than any snapshot taken before the scan, and vacuum only removes
          chains invisible to every active snapshot.
        """
        if chunk_size is None or chunk_size <= 0:
            chunk_size = self._tree.order
        cursor, include_lo = lo, True
        while True:
            chunk: list[tuple[Hashable, VersionChain]] = []
            with self.latch:
                for pair in self._tree.range(
                    cursor, hi, include_lo=include_lo
                ):
                    chunk.append(pair)
                    if len(chunk) >= chunk_size:
                        break
            if not chunk:
                return
            yield chunk
            if len(chunk) < chunk_size:
                return
            cursor, include_lo = chunk[-1][0], False

    def keys(self, chunk_size: int | None = None) -> Iterator[Hashable]:
        """Ordered key iterator in latch-bounded chunks (same resume-walk
        contract as :meth:`scan_chunks` — the latch is *not* held across
        the whole iteration)."""
        for chunk in self.scan_chunks(None, None, chunk_size):
            for key, _chain in chunk:
                yield key

    def leaf_page_of(self, key: Hashable) -> int:
        with self.latch:
            return self._tree.leaf_page_of(key)

    def leaf_pages(
        self, lo: Hashable | None, hi: Hashable | None
    ) -> list[int]:
        """Page ids covering ``[lo, hi]`` plus its boundary successor —
        the coarse-lock targets for a page-granularity scan."""
        with self.latch:
            return self._tree.leaf_pages(lo, hi)

    def root_page_id(self) -> int:
        return self._tree.root_page_id

    def __len__(self) -> int:
        with self.latch:
            return len(self._tree)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, keys={len(self)})"

    # ----------------------------------------------------------------- GC

    def vacuum(
        self,
        horizon_ts: int,
        chunk_size: int | None = None,
        on_pause: Any = None,
    ) -> int:
        """Prune versions invisible to every snapshot at or after
        ``horizon_ts``; drop keys whose chains become empty.

        With ``chunk_size`` set, at most that many chains are examined
        per latch hold and the latch is dropped between holds (resume
        walk, like :meth:`scan_chunks`) so concurrent scans are not
        stalled behind a full-table GC pass; ``on_pause`` is called at
        each drop (the engine counts them as ``vacuum_pause_events``).
        ``chunk_size=None`` keeps the legacy single-hold behaviour.

        Returns the number of versions removed.
        """
        removed = 0
        if chunk_size is None or chunk_size <= 0:
            with self.latch:
                dead_keys = []
                for key, chain in self._tree.items():
                    removed += chain.prune(horizon_ts)
                    if len(chain) == 0:
                        dead_keys.append(key)
                for key in dead_keys:
                    self._tree.delete(key)
                if dead_keys:
                    self.keyset_version += 1
            return removed
        cursor, include_lo = None, True
        while True:
            examined = 0
            last = None
            with self.latch:
                dead_keys = []
                for key, chain in self._tree.range(
                    cursor, None, include_lo=include_lo
                ):
                    examined += 1
                    last = key
                    removed += chain.prune(horizon_ts)
                    if len(chain) == 0:
                        dead_keys.append(key)
                    if examined >= chunk_size:
                        break
                for key in dead_keys:
                    self._tree.delete(key)
                if dead_keys:
                    self.keyset_version += 1
            if examined < chunk_size or last is None:
                return removed
            cursor, include_lo = last, False
            if on_pause is not None:
                on_pause()
