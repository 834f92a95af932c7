"""Recording and checking of concurrent read/write operation histories.

Each operation is recorded as an interval on one shared monotonic clock,
with timestamps taken immediately outside the operation so the recorded
interval over-approximates the true one (conservative: over-approximation
can mask a real violation, never fabricate one). Real-time precedence
``a -> b`` holds only when ``a`` responds strictly before ``b`` is invoked.

The checks implement the two register correctness conditions:

* regularity ("no past"): a read must return the newest write completed
  before it started, or one of the writes it overlaps. Reads of values
  older than the newest completed write are stale; reads of values whose
  write had not started are flagged too, so an empty report is exactly
  regularity even on adversarial histories.
* atomicity ("no new-old inversion"): of two reads ordered in real time,
  the later one may not return the older value. Together with regularity
  this is equivalent to linearizability for a single-writer register, and
  the test suite cross-checks that equivalence against a brute-force
  linearization search.

Recording is per-thread and contention-free: each operation is one packed
40-byte row of five native int64 fields, appended whole to a flat
``array('q')``. Merging and checking happen single-threaded after the run.

Checking costs a few linear passes over the rows; a history merged from
recorders, with no inverted read, is checked without any sort, and reads
its columns in place:

* validation: ``run_bench`` and the benchmark harness give the writer's
  recorder first, so a merged history holds all its writes, then all its
  reads. One count of the writes and one pass over each block prove that,
  and every read and write column is then a view of the history's column.
  Any other row order (a shuffled or time-sorted file, a writer that reads
  between its writes) takes a read and a write index list, which also
  prove that every row is one or the other, and gathers each column once.
  Writes, which one writer records in invocation order, are sorted only
  when they arrive otherwise. Threads are checked for overlapping records
  by comparing neighbouring rows, once every thread is seen to form one
  contiguous run, as ``History.from_recorders`` yields them; any other row
  order takes one ``lexsort`` by (thread, invocation) first.
* each read is mapped once to the position of the write it returned, which
  is also the check that some write produced its seq: the seq is the
  position when the writes carry seqs 1, 2, ..., W, checked by one minimum
  and one maximum, and one binary search among the writes finds it
  otherwise.
* regularity: two gathers per read; the witness search runs only for the
  violating reads.
* atomicity: a scatter-min of each read's response onto its value, then one
  gather per read. The stable sort of the reads by response that names the
  witnesses runs only when some read is inverted.
* integrity: one count over the reads' intact column.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

KIND_READ = 0
KIND_WRITE = 1

_KIND_NAMES = {KIND_READ: "read", KIND_WRITE: "write"}
_KIND_CODES = {"read": KIND_READ, "write": KIND_WRITE}

#: Sequence number of the register's initial value: a virtual write that
#: completed before every recorded operation.
INITIAL_SEQ = 0

#: Packs one recorded row, ``kind, invocation, response, seq, intact``, as
#: five native-endian int64 fields, the layout ``np.frombuffer`` reads back.
_ROW = struct.Struct("=5q").pack


class CorruptedHistoryError(ValueError):
    """The history is not a single-writer register history at all.

    Raised for operation kinds other than read and write, for reads
    returning a sequence number no write produced, for overlapping or
    non-increasing writes, and for overlapping records on one thread; the
    checks refuse to guess about such input.
    """


@dataclass(frozen=True)
class OpRecord:
    """One recorded operation."""

    thread_id: int
    kind: str  # "read" | "write"
    invocation_ts: int
    response_ts: int
    seq: int
    intact: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ValueError(f"kind must be 'read' or 'write', got {self.kind!r}")
        if self.invocation_ts > self.response_ts:
            raise ValueError("invocation_ts must not exceed response_ts")


@dataclass(frozen=True)
class RegularityViolation:
    """A read outside its admissible value window."""

    read_index: int
    read_seq: int
    witness_seq: int  # newest completed write (stale) / the read's own write (future)
    flavor: str  # "stale-read" | "future-read"


@dataclass(frozen=True)
class InversionViolation:
    """Two real-time-ordered reads returning new-then-old values."""

    first_read_index: int
    first_seq: int
    second_read_index: int
    second_seq: int


class Recorder:
    """Per-thread operation recorder (no cross-thread sharing during a run).

    Each operation is packed into one 40-byte row and appended with a single
    ``frombytes`` call, so a row is appended whole or not at all: a field
    outside int64 raises before anything is stored.
    """

    __slots__ = ("thread_id", "_rows", "_put")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self._rows = array("q")
        self._put = self._rows.frombytes

    def record_read(self, invocation_ts: int, response_ts: int, seq: int, intact: bool) -> None:
        self._put(_ROW(KIND_READ, invocation_ts, response_ts, seq, 1 if intact else 0))

    def record_write(self, invocation_ts: int, response_ts: int, seq: int) -> None:
        self._put(_ROW(KIND_WRITE, invocation_ts, response_ts, seq, 1))

    def __len__(self) -> int:
        return len(self._rows) // 5


class History:
    """A merged run history held as parallel column arrays."""

    __slots__ = ("thread", "kind", "invocation", "response", "seq", "intact")

    def __init__(self, thread, kind, invocation, response, seq, intact) -> None:
        self.thread = np.asarray(thread, dtype=np.int64)
        self.kind = np.asarray(kind, dtype=np.int64)
        self.invocation = np.asarray(invocation, dtype=np.int64)
        self.response = np.asarray(response, dtype=np.int64)
        self.seq = np.asarray(seq, dtype=np.int64)
        self.intact = np.asarray(intact, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def from_recorders(cls, recorders: Iterable[Recorder]) -> "History":
        recorders = list(recorders)
        sizes = [len(rec) for rec in recorders]
        # Each column gets its own contiguous array: the checks pass over
        # the columns several times, and a column strided through the
        # packed rows costs more per pass than the one copy that unpacks it.
        columns = np.empty((5, sum(sizes)), dtype=np.int64)
        if recorders:
            np.concatenate(
                [np.frombuffer(rec._rows, dtype=np.int64).reshape(-1, 5).T for rec in recorders],
                axis=1,
                out=columns,
            )
        thread = np.repeat(np.array([rec.thread_id for rec in recorders], dtype=np.int64), sizes)
        return cls(thread, *columns)

    @classmethod
    def from_records(cls, records: Sequence[OpRecord]) -> "History":
        return cls(
            [r.thread_id for r in records],
            [_KIND_CODES[r.kind] for r in records],
            [r.invocation_ts for r in records],
            [r.response_ts for r in records],
            [r.seq for r in records],
            [1 if r.intact else 0 for r in records],
        )

    def records(self) -> list[OpRecord]:
        return [
            OpRecord(
                int(self.thread[i]),
                _KIND_NAMES[int(self.kind[i])],
                int(self.invocation[i]),
                int(self.response[i]),
                int(self.seq[i]),
                bool(self.intact[i]),
            )
            for i in range(len(self))
        ]

    # Line format: `thread kind invocation_ts response_ts seq intact`,
    # one record per line, so saved runs can be re-checked later.

    def to_lines(self) -> Iterator[str]:
        columns = (self.thread, self.kind, self.invocation, self.response, self.seq, self.intact)
        for thread, kind, inv, resp, seq, intact in zip(*(c.tolist() for c in columns)):
            yield f"{thread} {_KIND_NAMES[kind]} {inv} {resp} {seq} {intact}"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "History":
        cols: tuple[list, list, list, list, list, list] = ([], [], [], [], [], [])
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ValueError(f"line {lineno}: expected 6 fields, got {len(fields)}")
            if fields[1] not in _KIND_CODES:
                raise ValueError(f"line {lineno}: bad kind {fields[1]!r}")
            cols[0].append(int(fields[0]))
            cols[1].append(_KIND_CODES[fields[1]])
            cols[2].append(int(fields[2]))
            cols[3].append(int(fields[3]))
            cols[4].append(int(fields[4]))
            cols[5].append(int(fields[5]))
        return cls(*cols)

    @classmethod
    def load(cls, path) -> "History":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_lines(fh)


def _rows(column: np.ndarray, rows) -> np.ndarray:
    """``column`` at ``rows``: a view when ``rows`` is a range, else a gather."""
    if isinstance(rows, range):
        return column[rows.start : rows.stop]
    return column[rows]


def _validate(h: History) -> tuple:
    """Sanity-check the history; return its read and write columns.

    The result is ``(reads, source, r_inv, r_resp, r_seq, w_inv, w_resp,
    values)``. ``reads`` holds the read row numbers: a ``range`` when the
    reads form one block, else an index array. ``r_inv``, ``r_resp`` and
    ``r_seq`` are the reads' invocation, response and seq columns in row
    order. ``w_inv`` and ``w_resp`` are the writes' invocation and
    response columns in invocation order, and ``values`` is
    ``[INITIAL_SEQ]`` followed by their seqs. ``source[i]`` is the
    position in ``values`` of the value that read ``reads[i]`` returned:
    0 for the initial value, k for the k-th write. The columns of a block
    of rows are views, the others are gathered once.
    """
    inv, resp, seq, kind = h.invocation, h.response, h.seq, h.kind
    if len(h) and (inv > resp).any():
        raise CorruptedHistoryError("operation with invocation after response")
    # A merged run lists the writer's recorder first: its writes, then
    # every read. KIND_READ is 0, so the nonzero kinds are the writes and
    # any unknown kind; the two blocks hold iff those lead the rows and are
    # all writes.
    n_writes = np.count_nonzero(kind)
    if not np.count_nonzero(kind[n_writes:]) and (kind[:n_writes] == KIND_WRITE).all():
        writes, reads = range(n_writes), range(n_writes, len(h))
    else:
        writes = np.flatnonzero(kind == KIND_WRITE)
        reads = np.flatnonzero(kind == KIND_READ)
        if len(reads) + len(writes) != len(h):
            bad = kind[(kind != KIND_READ) & (kind != KIND_WRITE)][0]
            raise CorruptedHistoryError(f"operation kind {bad} is neither read nor write")
    w_inv, w_resp, w_seq = _rows(inv, writes), _rows(resp, writes), _rows(seq, writes)
    # One writer records its writes in invocation order; sort only
    # histories that arrive otherwise.
    if (w_inv[1:] < w_inv[:-1]).any():
        order = np.argsort(w_inv, kind="stable")
        w_inv, w_resp, w_seq = w_inv[order], w_resp[order], w_seq[order]
    values = np.concatenate(([INITIAL_SEQ], w_seq))
    if (w_seq[1:] <= w_seq[:-1]).any():
        raise CorruptedHistoryError("write sequence numbers are not strictly increasing")
    if len(w_seq) and w_seq[0] <= INITIAL_SEQ:  # the smallest seq, once they increase
        raise CorruptedHistoryError("write sequence number collides with the initial value")
    if (w_inv[1:] < w_resp[:-1]).any():
        raise CorruptedHistoryError("writes overlap; single-writer history expected")
    _check_threads(h)
    r_seq = _rows(seq, reads)
    if values[-1] == len(w_seq):  # values are 0, 1, .., W: each seq is its position
        source = r_seq
        # Two reductions; the mask that names the culprit only on failure.
        known = not len(r_seq) or INITIAL_SEQ <= r_seq.min() and r_seq.max() <= values[-1]
        if not known:
            unknown = (r_seq < INITIAL_SEQ) | (r_seq > values[-1])
    else:
        source = np.searchsorted(values, r_seq)
        unknown = values[np.minimum(source, len(w_seq))] != r_seq
        known = not unknown.any()
    if not known:
        bad = r_seq[unknown][0]
        raise CorruptedHistoryError(f"read returned seq {bad} which no write produced")
    return reads, source, _rows(inv, reads), _rows(resp, reads), r_seq, w_inv, w_resp, values


def _check_threads(h: History) -> None:
    """Refuse a thread whose records overlap; equal boundaries are tolerated.

    Rows merged from recorders come grouped by thread, each group in program
    order, so comparing neighbours is the whole check once every thread is
    known to form one contiguous run. Any other row order is sorted by
    (thread, invocation) first.
    """
    if len(h) < 2:
        return
    thread, inv, resp = h.thread, h.invocation, h.response
    same = thread[1:] == thread[:-1]
    runs = np.concatenate((thread[:1], thread[1:][~same]))
    if len(np.unique(runs)) == len(runs) and not (same & (inv[1:] < resp[:-1])).any():
        return
    order = np.lexsort((inv, thread))
    thread, inv, resp = thread[order], inv[order], resp[order]
    bad = np.flatnonzero((thread[1:] == thread[:-1]) & (inv[1:] < resp[:-1]))
    if len(bad):
        raise CorruptedHistoryError(f"thread {thread[bad[0]]} has overlapping operations")


def check_no_past(h: History) -> list[RegularityViolation]:
    """Report every read outside its admissible window (regularity check).

    A read is stale when some write completed before the read was invoked
    but after the write that produced the read's value; it is a future read
    when the write producing its value had not been invoked by the time the
    read responded. An empty report means the history is regular.
    """
    reads, source, r_inv, r_resp, _, *writes = _validate(h)
    return _no_past(reads, source, r_inv, r_resp, *writes)


def _no_past(
    reads: range | np.ndarray,
    source: np.ndarray,
    r_inv: np.ndarray,
    r_resp: np.ndarray,
    w_inv: np.ndarray,
    w_resp: np.ndarray,
    values: np.ndarray,
) -> list[RegularityViolation]:
    if not len(reads):
        return []
    # Writes are sequential, so invocation, response and seq order agree.
    # A read is stale iff the write after its source completed before the
    # read began, and future iff its source began after the read ended.
    next_resp = np.concatenate((w_resp, [np.iinfo(np.int64).max]))
    own_inv = np.concatenate(([np.iinfo(np.int64).min], w_inv))
    stale = np.flatnonzero(next_resp[source] < r_inv)
    future = np.flatnonzero(own_inv[source] > r_resp)
    # Witnesses: the newest write completed before the read began, and the
    # newest write begun before it ended (position 0 is the initial value).
    newest_done = values[np.searchsorted(w_resp, r_inv[stale], side="left")]
    newest_avail = values[np.searchsorted(w_inv, r_resp[future], side="right")]
    violations = [
        RegularityViolation(int(reads[i]), int(values[source[i]]), int(w), "stale-read")
        for i, w in zip(stale, newest_done)
    ]
    violations += [
        RegularityViolation(int(reads[i]), int(values[source[i]]), int(w), "future-read")
        for i, w in zip(future, newest_avail)
    ]
    return violations


def check_no_new_old_inversion(h: History) -> list[InversionViolation]:
    """Report reads ordered in real time whose values are ordered new-then-old.

    Writes are totally ordered by their sequence numbers, so value
    precedence reduces to integer comparison. For each offending later
    read, one witness pair is reported (against the newest-valued earlier
    read); every read participating as the later element of some violating
    pair appears exactly once.
    """
    reads, source, r_inv, r_resp, r_seq, *_ = _validate(h)
    return _inversions(reads, source, r_inv, r_resp, r_seq)


def _inversions(
    reads: range | np.ndarray,
    source: np.ndarray,
    r_inv: np.ndarray,
    r_resp: np.ndarray,
    r_seq: np.ndarray,
) -> list[InversionViolation]:
    if len(reads) < 2:
        return []
    # first[p]: the earliest response of a read that returned value p.
    # newer[p]: the earliest response of a read that returned a value newer
    # than p. A read is inverted iff such a read responded before it began.
    first = np.full(source.max() + 2, np.iinfo(np.int64).max)
    np.minimum.at(first, source, r_resp)
    newer = np.minimum.accumulate(first[:0:-1])[::-1]
    violating = np.flatnonzero(newer[source] < r_inv)
    if not len(violating):
        return []
    # Witness: the newest-valued read among those that responded before the
    # later read was invoked, taking the last such read by response.
    by_resp = np.argsort(r_resp, kind="stable")
    seq_by_resp = r_seq[by_resp]
    prefix_max = np.maximum.accumulate(seq_by_resp)
    is_new_max = seq_by_resp >= prefix_max
    argmax_by_resp = np.maximum.accumulate(np.where(is_new_max, np.arange(len(by_resp)), 0))
    last_before = np.searchsorted(r_resp[by_resp], r_inv[violating], side="left") - 1
    return [
        InversionViolation(
            int(reads[by_resp[argmax_by_resp[j]]]), int(prefix_max[j]), int(reads[i]), int(r_seq[i])
        )
        for i, j in zip(violating, last_before)
    ]


def check_integrity(h: History) -> int:
    """Count torn reads: read records whose payload scan failed."""
    return int(((h.kind == KIND_READ) & (h.intact == 0)).sum())


@dataclass(frozen=True)
class VerificationReport:
    """Combined verdict of all three history checks."""

    no_past: list[RegularityViolation]
    inversions: list[InversionViolation]
    torn_reads: int

    @property
    def total_violations(self) -> int:
        return len(self.no_past) + len(self.inversions) + self.torn_reads

    @property
    def atomic(self) -> bool:
        """True iff the history is regular with no new-old inversion."""
        return not self.no_past and not self.inversions


def check_history(h: History) -> VerificationReport:
    """Run all checks and bundle the results (validating the history once)."""
    reads, source, r_inv, r_resp, r_seq, *writes = _validate(h)
    return VerificationReport(
        no_past=_no_past(reads, source, r_inv, r_resp, *writes),
        inversions=_inversions(reads, source, r_inv, r_resp, r_seq),
        torn_reads=len(reads) - int(np.count_nonzero(_rows(h.intact, reads))),
    )
