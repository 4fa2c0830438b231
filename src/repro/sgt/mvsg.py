"""Multiversion serialization graph (MVSG) construction.

Under snapshot isolation the MVSG is simple because versions of an item
are totally ordered by commit timestamp (paper Section 2.5.1).  Edges
between committed transactions T1 -> T2:

* **ww**: T1 installs a version of x, T2 installs a later version of x;
* **wr**: T1 installs the version of x that T2 read;
* **rw** (anti-dependency): T1 reads a version of x older than a version
  installed by T2 — including the phantom form, where T1's predicate scan
  missed a row T2 created or deleted inside the scanned range.

A cycle proves the history non-serializable; rw edges are the "dashed"
edges of the paper's figures and two consecutive ones around a pivot form
the dangerous structure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.sgt.history import HistoryRecorder


@dataclass(frozen=True, slots=True)
class DependencyEdge:
    """A dependency in the MVSG."""

    src: int
    dst: int
    kind: str  # "ww" | "wr" | "rw"
    item: tuple  # (table, key) or (table, (lo, hi)) for phantom edges

    @property
    def is_antidependency(self) -> bool:
        return self.kind == "rw"


@dataclass(slots=True)
class MVSG:
    """The graph: committed transaction ids plus typed edges."""

    nodes: set[int] = field(default_factory=set)
    edges: set[DependencyEdge] = field(default_factory=set)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = defaultdict(set)
        for node in self.nodes:
            adj.setdefault(node, set())
        for edge in self.edges:
            adj[edge.src].add(edge.dst)
        return adj

    def find_cycle(self) -> list[int]:
        """Return node ids forming a cycle, or [] if the graph is acyclic."""
        adj = self.adjacency()
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in adj}
        parent: dict[int, int] = {}

        for root in adj:
            if colour[root] != WHITE:
                continue
            stack = [(root, iter(adj[root]))]
            colour[root] = GREY
            while stack:
                node, neighbours = stack[-1]
                advanced = False
                for target in neighbours:
                    if colour[target] == WHITE:
                        colour[target] = GREY
                        parent[target] = node
                        stack.append((target, iter(adj[target])))
                        advanced = True
                        break
                    if colour[target] == GREY:
                        cycle = [target]
                        walker = node
                        while walker != target:
                            cycle.append(walker)
                            walker = parent[walker]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return []

    def rw_edges(self) -> list[DependencyEdge]:
        return [edge for edge in self.edges if edge.is_antidependency]

    def pivots_in_cycle(self) -> list[int]:
        """Transactions with consecutive incoming+outgoing rw edges that lie
        on some cycle — the dangerous-structure pivots actually realised."""
        cycle = self.find_cycle()
        if not cycle:
            return []
        rw_in = {edge.dst for edge in self.rw_edges()}
        rw_out = {edge.src for edge in self.rw_edges()}
        return [node for node in cycle if node in rw_in and node in rw_out]

    def to_dot(self) -> str:
        """Graphviz rendering in the paper's notation: dashed edges are
        rw-antidependencies, cycle members are highlighted."""
        cycle = set(self.find_cycle())
        lines = ["digraph MVSG {", "  rankdir=LR;"]
        for node in sorted(self.nodes):
            style = ', style=filled, fillcolor="#f4cccc"' if node in cycle else ""
            lines.append(f'  "T{node}" [shape=circle{style}];')
        for edge in sorted(self.edges, key=lambda e: (e.src, e.dst, e.kind)):
            style = "dashed" if edge.is_antidependency else "solid"
            lines.append(
                f'  "T{edge.src}" -> "T{edge.dst}" '
                f'[style={style}, label="{edge.kind}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MVSG(nodes={len(self.nodes)}, edges={len(self.edges)})"


def _sorted_keys(keys: Iterable[Hashable]) -> tuple[list, bool]:
    """``keys`` in order, and whether they could be ordered at all (a
    table whose keys do not compare with each other is range-filtered
    one key at a time instead)."""
    keys = list(keys)
    try:
        keys.sort()
    except TypeError:
        return keys, False
    return keys, True


def build_mvsg(history: HistoryRecorder) -> MVSG:
    """Build the MVSG over the committed transactions of a history.

    Near-linear in the history plus the edges found: each item's
    writers are kept in commit order with a parallel timestamp list, so
    a read bisects to the first newer version instead of walking them
    all, and each table's written keys are kept sorted, so a predicate
    scan bisects its ``[lo, hi]`` instead of testing every written item.
    Every edge on an item shares one ``(table, key)`` tuple.
    """
    committed = {record.txn_id: record for record in history.committed()}
    graph = MVSG(nodes=set(committed))
    edges = graph.edges

    # Index writers: (table, key) -> (the item itself, commit timestamps
    # in order, the writing transaction of each).
    versions: dict[tuple[str, Hashable], list[tuple[int, int]]] = defaultdict(list)
    for record in committed.values():
        for op in record.writes():
            versions[(op.table, op.key)].append((record.commit_ts, record.txn_id))
    written: dict[tuple[str, Hashable], tuple[tuple, list[int], list[int]]] = {}
    for item, item_versions in versions.items():
        item_versions.sort()
        written[item] = (
            item,
            [commit_ts for commit_ts, _txn in item_versions],
            [txn_id for _ts, txn_id in item_versions],
        )
    del versions

    # ww edges: version order on each item.
    for item, _stamps, txns in written.values():
        for txn1, txn2 in zip(txns, txns[1:]):
            if txn1 != txn2:
                edges.add(DependencyEdge(txn1, txn2, "ww", item))

    def point_read(reader: int, table: str, key: Hashable,
                   version_ts: int | None, begin_ts: int) -> None:
        entry = written.get((table, key))
        if entry is None:
            return
        item, stamps, txns = entry
        if version_ts is None:
            observed_ts = begin_ts
        else:
            observed_ts = version_ts
            if version_ts > 0:
                # wr: the creator of the observed version.
                index = bisect_left(stamps, version_ts)
                if index < len(stamps) and stamps[index] == version_ts:
                    creator = txns[index]
                    if creator != reader:
                        edges.add(DependencyEdge(creator, reader, "wr", item))
        # rw: every later version of the item.
        for index in range(bisect_right(stamps, observed_ts), len(txns)):
            writer = txns[index]
            if writer != reader:
                edges.add(DependencyEdge(reader, writer, "rw", item))

    # Written keys per table, sorted, for the predicate scans.
    table_keys: dict[str, tuple[list, bool]] = {}

    def written_in(table: str, lo: Hashable | None, hi: Hashable | None) -> list:
        if table not in table_keys:
            table_keys[table] = _sorted_keys(
                key for name, key in written if name == table
            )
        keys, ordered = table_keys[table]
        if not ordered:
            return [
                key for key in keys
                if (lo is None or not key < lo) and (hi is None or not hi < key)
            ]
        start = 0 if lo is None else bisect_left(keys, lo)
        stop = len(keys) if hi is None else bisect_right(keys, hi)
        return keys[start:stop]

    for reader, record in committed.items():
        begin_ts = record.begin_ts or 0
        for op in record.ops:
            kind = op.kind
            if kind == "read":
                point_read(reader, op.table, op.key, op.version_ts, begin_ts)
            elif kind != "scan":
                continue
            else:
                table = op.table
                for key, version_ts in op.read_rows():
                    point_read(reader, table, key, version_ts, begin_ts)
                if op.version_ts is None:
                    continue  # no snapshot: row reads only
                # phantom rw edges: every newer writer inside the range.
                lo, hi = op.key
                read_ts = op.version_ts or begin_ts
                bounds_item = (table, (lo, hi))
                for key in written_in(table, lo, hi):
                    _item, stamps, txns = written[(table, key)]
                    for index in range(bisect_right(stamps, read_ts), len(txns)):
                        writer = txns[index]
                        if writer != reader:
                            edges.add(
                                DependencyEdge(reader, writer, "rw", bounds_item)
                            )
    return graph
