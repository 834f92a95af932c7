"""Spans of a traced run: compact per-operation rows, the span table, self time.

A traced driver thread appends one row per operation to a flat int64
``array``: ``(kind, thread, t0, t1, t2, t3, switched)``, with ``thread`` the
history thread id (0 is the writer) and ``switched`` set when a read returned
another buffer than the handle's previous read. A row encodes four nested
spans; ``<layer>`` is ``arc`` or ``baselines``:

* read:  ``driver.read [t0,t3]`` > ``<layer>.read [t0,t1]``,
  check ``[t1,t2]``, ``history.record [t2,t3]``
* write: ``driver.write [t0,t3]`` > prepare ``[t0,t1]``,
  ``<layer>.write [t1,t2]``, ``history.record [t2,t3]``

In work mode the check is ``api.decode`` and the prepare ``api.encode``; in
hold mode they are the driver's own version-word peek and template stamp and
have no span, so they count as ``driver`` self time.
"""

from __future__ import annotations

import numpy as np

READ, WRITE = 0, 1
ROW = 7

#: An operation slower than this crossed a GIL hand-off, so its spans hold
#: another thread's time; busy sums leave such operations out and scale up.
PREEMPT_NS = 1_000_000

NAMES = (
    "driver.read", "driver.write", "arc.read", "arc.write",
    "baselines.read", "baselines.write", "api.decode", "api.encode",
    "history.record",
)
_ID = {name: i for i, name in enumerate(NAMES)}


def as_rows(buffers) -> np.ndarray:
    """Stack per-thread row buffers into one ``(n, ROW)`` int64 array."""
    parts = [np.frombuffer(b, dtype=np.int64).reshape(-1, ROW) for b in buffers if len(b)]
    return np.concatenate(parts) if parts else np.empty((0, ROW), dtype=np.int64)


def span_table(rows: np.ndarray, layer: str, work: bool) -> dict[str, np.ndarray]:
    """Expand rows into explicit spans: name id, start, end, parent, op id.

    The parent of a child span is the row index of its operation span;
    operation spans have parent -1. Op ids are row indices.
    """
    n = len(rows)
    kind, t0, t1, t2, t3 = rows[:, 0], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
    is_read = kind == READ
    op = np.arange(n)
    names = [np.where(is_read, _ID["driver.read"], _ID["driver.write"])]
    starts, ends, parents, ops = [t0], [t3], [np.full(n, -1)], [op]

    def child(name_read, name_write, start, end):
        names.append(np.where(is_read, _ID[name_read], _ID[name_write]))
        starts.append(start)
        ends.append(end)
        parents.append(op)
        ops.append(op)

    child(f"{layer}.read", f"{layer}.write", np.where(is_read, t0, t1), np.where(is_read, t1, t2))
    if work:
        child("api.decode", "api.encode", np.where(is_read, t1, t0), np.where(is_read, t2, t1))
    child("history.record", "history.record", t2, t3)
    return {
        "name": np.concatenate(names),
        "start": np.concatenate(starts),
        "end": np.concatenate(ends),
        "parent": np.concatenate(parents),
        "op": np.concatenate(ops),
    }


def self_time(table: dict[str, np.ndarray], n_ops: int, op_ns: np.ndarray) -> dict[str, float]:
    """Self time in ns per span name: duration minus the children's.

    Operations over ``PREEMPT_NS`` are left out and the sums scaled by
    ``n_ops / kept``, so a GIL hand-off inside a span is not billed to it.
    """
    dur = table["end"] - table["start"]
    parent = table["parent"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n_ops)
    own = dur.astype(np.float64)
    own[:n_ops] -= children  # op spans come first, indexed by op id
    kept = op_ns[table["op"]] <= PREEMPT_NS
    n_kept = int((op_ns <= PREEMPT_NS).sum())
    scale = n_ops / n_kept if n_kept else 0.0
    per_name = np.bincount(table["name"][kept], weights=own[kept], minlength=len(NAMES))
    return {name: float(ns) * scale for name, ns in zip(NAMES, per_name)}


def write_csv(path, table: dict[str, np.ndarray], op_base: int) -> int:
    """Append spans as CSV rows ``span,name,start_ns,end_ns,parent,op``.

    Span and op ids are offset by ``op_base`` so that several tables share
    one file; returns the next free base.
    """
    n_spans = len(table["name"])
    with open(path, "a", encoding="ascii") as fh:
        for i in range(n_spans):
            parent = int(table["parent"][i])
            fh.write(
                f"{op_base + i},{NAMES[table['name'][i]]},{table['start'][i]},"
                f"{table['end'][i]},{op_base + parent if parent >= 0 else -1},"
                f"{op_base + int(table['op'][i])}\n"
            )
    return op_base + n_spans
