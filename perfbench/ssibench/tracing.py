"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces methods *on the instances the benchmark built*
(``db.read``, ``db.locks.acquire``, ``wal.flush``, ...) with timing
wrappers, and puts the class methods back on :meth:`SpanTracer.uninstall`.
Nothing under ``src/`` knows it is traced.  The engine calls these
methods through ``self.<name>``, so its internal calls are caught too.

A span is ``(id, name, start_ns, end_ns, parent_id, txn_id)``.  Spans
live in one flat ``array('q')`` while the run lasts and are written to
a CSV file when it ends.  The parent is whatever span was open on the
same thread when the call began; the transaction id is taken from the
call's first argument (a transaction object or a global id) or
inherited from the parent.

A layer's *self time* is the duration of its spans minus the time
their child spans cover.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable

from repro.errors import GroupCommitWaitRequired, LockWaitRequired

_SUSPEND = (GroupCommitWaitRequired, LockWaitRequired)


def txn_id_of(args: tuple) -> int:
    """The transaction id a call is about, or -1 when it names none."""
    if not args:
        return -1
    first = args[0]
    if isinstance(first, int) and not isinstance(first, bool):
        return first
    ident = getattr(first, "id", None)
    return ident if isinstance(ident, int) else -1


class SpanTracer:
    """Installs and removes timing wrappers; keeps the spans they record."""

    FIELDS = 6

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._targets: list[tuple[Any, str, Callable]] = []
        self._saved: dict[tuple[int, str], Any] = {}
        #: rows yielded per generator span name (scan chunks)
        self.rows: dict[str, int] = defaultdict(int)
        #: calls per generator span name (one per generator, not chunk)
        self.generators: dict[str, int] = defaultdict(int)
        self.installed = False

    # ------------------------------------------------------ registration

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, obj: Any, attr: str, name: str | Callable[[tuple], str],
             after: Callable[[Any], None] | None = None) -> None:
        """Trace ``obj.attr`` as a plain call.  ``name`` may pick the span
        name from the call's arguments; ``after`` sees each result."""
        fn = getattr(obj, attr)
        pick = name if callable(name) else None
        fixed = None if pick is not None else self.name_id(name)
        ids, spans, stack_of, name_id = (
            self._ids, self.spans, self._stack, self.name_id
        )

        def traced(*args, **kwargs):
            stack = stack_of()
            ident = next(ids)
            txn = txn_id_of(args)
            if stack:
                parent, outer_txn = stack[-1]
                if txn < 0:
                    txn = outer_txn
            else:
                parent = -1
            label = fixed if pick is None else name_id(pick(args))
            stack.append((ident, txn))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.extend((ident, label, start, end, parent, txn))
            if after is not None:
                after(result)
            return result

        self._targets.append((obj, attr, traced))

    def resumable(self, obj: Any, attr: str, name: str) -> None:
        """Trace a call that a session may suspend and re-invoke
        (``Database.commit(wait=False)``): one span from the first
        invocation to the one that returns, the wait included."""
        fn = getattr(obj, attr)
        label = self.name_id(name)
        ids, spans, stack_of = self._ids, self.spans, self._stack
        pending: dict[int, tuple[int, int]] = {}

        def traced(txn, *args, **kwargs):
            stack = stack_of()
            parent = stack[-1][0] if stack else -1
            ident, start = pending.pop(txn.id, (None, None))
            if ident is None:
                ident, start = next(ids), perf_counter_ns()
            stack.append((ident, txn.id))
            try:
                result = fn(txn, *args, **kwargs)
            except _SUSPEND:
                pending[txn.id] = (ident, start)
                raise
            finally:
                stack.pop()
            # (an abort error propagates without a span: only commits
            # that finished are timed)
            spans.extend((ident, label, start, perf_counter_ns(), parent,
                          txn.id))
            return result

        self._targets.append((obj, attr, traced))

    def generator(self, obj: Any, attr: str, name: str) -> None:
        """Trace a generator method: one span per ``next()``, counting the
        items (rows of a chunk) it yields."""
        fn = getattr(obj, attr)
        label = self.name_id(name)
        ids, spans, stack_of = self._ids, self.spans, self._stack
        rows, generators = self.rows, self.generators

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            generators[name] += 1
            try:
                while True:
                    stack = stack_of()
                    parent, txn = stack[-1] if stack else (-1, -1)
                    ident = next(ids)
                    start = perf_counter_ns()
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        spans.extend((ident, label, start, perf_counter_ns(),
                                      parent, txn))
                        return
                    spans.extend((ident, label, start, perf_counter_ns(),
                                  parent, txn))
                    rows[name] += len(chunk)
                    yield chunk
            finally:
                # A consumer that stops early (scan_prefix) closes us.
                inner.close()

        self._targets.append((obj, attr, traced))

    # ---------------------------------------------------------- toggling

    def install(self) -> None:
        if self.installed:
            return
        for obj, attr, traced in self._targets:
            key = (id(obj), attr)
            if key not in self._saved:
                self._saved[key] = obj.__dict__.get(attr)
            setattr(obj, attr, traced)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for obj, attr, _traced in self._targets:
            original = self._saved[(id(obj), attr)]
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self.installed = False

    # ---------------------------------------------------------- analysis

    def records(self) -> list[tuple[int, ...]]:
        width = self.FIELDS
        flat = self.spans
        return [
            tuple(flat[i:i + width]) for i in range(0, len(flat), width)
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, inclusive ``total_ns``, ``self_ns``."""
        records = self.records()
        child_ns: dict[int, int] = defaultdict(int)
        for _ident, _name, start, end, parent, _txn in records:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for ident, name, start, end, _parent, _txn in records:
            entry = out.setdefault(
                self.names[name], {"count": 0, "total_ns": 0, "self_ns": 0}
            )
            entry["count"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += max(0, end - start - child_ns.get(ident, 0))
        return out

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer (the span name's first component)."""
        layers: dict[str, int] = defaultdict(int)
        for name, entry in self.summary().items():
            layers[name.split(".", 1)[0]] += entry["self_ns"]
        return dict(layers)

    def write(self, path: str) -> None:
        """Write every span as CSV: id,name,start_ns,end_ns,parent,txn."""
        with open(path, "w") as handle:
            handle.write("id,name,start_ns,end_ns,parent,txn\n")
            for ident, name, start, end, parent, txn in self.records():
                handle.write(
                    f"{ident},{self.names[name]},{start},{end},{parent},{txn}\n"
                )


def mean_us(summary: dict, *names: str) -> float:
    """Mean inclusive duration in microseconds over the named spans."""
    count = sum(summary.get(name, {}).get("count", 0) for name in names)
    total = sum(summary.get(name, {}).get("total_ns", 0) for name in names)
    return total / count / 1000.0 if count else 0.0
