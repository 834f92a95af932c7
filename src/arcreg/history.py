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

Recording is per-thread and contention-free (flat int64 append buffers);
merging and checking happen single-threaded after the run.
"""

from __future__ import annotations

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


class CorruptedHistoryError(ValueError):
    """The history is not a single-writer register history at all.

    Raised for reads returning a sequence number no write produced, for
    overlapping or non-increasing writes, and for overlapping records on
    one thread; the checks refuse to guess about such input.
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
    """Per-thread operation recorder (no cross-thread sharing during a run)."""

    __slots__ = ("thread_id", "_rows")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self._rows = array("q")

    def record_read(self, invocation_ts: int, response_ts: int, seq: int, intact: bool) -> None:
        self._rows.extend((KIND_READ, invocation_ts, response_ts, seq, 1 if intact else 0))

    def record_write(self, invocation_ts: int, response_ts: int, seq: int) -> None:
        self._rows.extend((KIND_WRITE, invocation_ts, response_ts, seq, 1))

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
        parts = []
        threads = []
        for rec in recorders:
            rows = np.frombuffer(rec._rows, dtype=np.int64).reshape(-1, 5)
            parts.append(rows)
            threads.append(np.full(len(rows), rec.thread_id, dtype=np.int64))
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, empty, empty, empty, empty)
        rows = np.concatenate(parts)
        thread = np.concatenate(threads)
        return cls(thread, rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4])

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
        for i in range(len(self)):
            yield (
                f"{self.thread[i]} {_KIND_NAMES[int(self.kind[i])]} "
                f"{self.invocation[i]} {self.response[i]} "
                f"{self.seq[i]} {self.intact[i]}"
            )

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


def _validate(h: History) -> tuple[np.ndarray, np.ndarray]:
    """Sanity-check the history; return (read indices, write indices)."""
    if len(h) and (h.invocation > h.response).any():
        raise CorruptedHistoryError("operation with invocation after response")
    writes = np.flatnonzero(h.kind == KIND_WRITE)
    reads = np.flatnonzero(h.kind == KIND_READ)
    if len(writes):
        order = writes[np.argsort(h.invocation[writes], kind="stable")]
        seqs = h.seq[order]
        if (np.diff(seqs) <= 0).any():
            raise CorruptedHistoryError("write sequence numbers are not strictly increasing")
        if (seqs <= INITIAL_SEQ).any():
            raise CorruptedHistoryError("write sequence number collides with the initial value")
        if (h.invocation[order][1:] < h.response[order][:-1]).any():
            raise CorruptedHistoryError("writes overlap; single-writer history expected")
    # Per-thread records must not overlap (operations of a thread are
    # sequential); equal boundary timestamps are tolerated.
    for tid in np.unique(h.thread):
        idx = np.flatnonzero(h.thread == tid)
        order = idx[np.argsort(h.invocation[idx], kind="stable")]
        if len(order) > 1 and (h.invocation[order][1:] < h.response[order][:-1]).any():
            raise CorruptedHistoryError(f"thread {tid} has overlapping operations")
    if len(reads):
        known = np.concatenate((h.seq[writes], [INITIAL_SEQ]))
        if not np.isin(h.seq[reads], known).all():
            bad = h.seq[reads][~np.isin(h.seq[reads], known)][0]
            raise CorruptedHistoryError(
                f"read returned seq {bad} which no write produced"
            )
    return reads, writes


def check_no_past(h: History) -> list[RegularityViolation]:
    """Report every read outside its admissible window (regularity check).

    A read is stale when some write completed before the read was invoked
    but after the write that produced the read's value; it is a future read
    when the write producing its value had not been invoked by the time the
    read responded. An empty report means the history is regular.
    """
    reads, writes = _validate(h)
    return _no_past(h, reads, writes)


def _no_past(h: History, reads: np.ndarray, writes: np.ndarray) -> list[RegularityViolation]:
    if not len(reads):
        return []
    violations: list[RegularityViolation] = []
    r_inv = h.invocation[reads]
    r_resp = h.response[reads]
    r_seq = h.seq[reads]
    if len(writes):
        order = writes[np.argsort(h.invocation[writes], kind="stable")]
        w_inv = h.invocation[order]
        w_resp = h.response[order]
        w_seq = h.seq[order]
        # Writes are sequential, so response order == invocation order ==
        # seq order; completed-before and started-before lookups are
        # prefix positions in that one ordering.
        done_before = np.searchsorted(w_resp, r_inv, side="left")
        newest_done = np.where(done_before > 0, w_seq[np.maximum(done_before - 1, 0)], INITIAL_SEQ)
        started_before = np.searchsorted(w_inv, r_resp, side="right")
        newest_avail = np.where(
            started_before > 0, w_seq[np.maximum(started_before - 1, 0)], INITIAL_SEQ
        )
    else:
        newest_done = np.full(len(reads), INITIAL_SEQ)
        newest_avail = np.full(len(reads), INITIAL_SEQ)
    stale = np.flatnonzero(r_seq < newest_done)
    future = np.flatnonzero(r_seq > newest_avail)
    for i in stale:
        violations.append(
            RegularityViolation(int(reads[i]), int(r_seq[i]), int(newest_done[i]), "stale-read")
        )
    for i in future:
        violations.append(
            RegularityViolation(int(reads[i]), int(r_seq[i]), int(newest_avail[i]), "future-read")
        )
    return violations


def check_no_new_old_inversion(h: History) -> list[InversionViolation]:
    """Report reads ordered in real time whose values are ordered new-then-old.

    Writes are totally ordered by their sequence numbers, so value
    precedence reduces to integer comparison. For each offending later
    read, one witness pair is reported (against the newest-valued earlier
    read); every read participating as the later element of some violating
    pair appears exactly once.
    """
    reads, _ = _validate(h)
    return _inversions(h, reads)


def _inversions(h: History, reads: np.ndarray) -> list[InversionViolation]:
    if len(reads) < 2:
        return []
    r_inv = h.invocation[reads]
    r_resp = h.response[reads]
    r_seq = h.seq[reads]
    by_resp = np.argsort(r_resp, kind="stable")
    resp_sorted = r_resp[by_resp]
    seq_by_resp = r_seq[by_resp]
    # Running maximum of returned seqs over reads sorted by response, with
    # the argmax carried along for witness reporting.
    prefix_max = np.maximum.accumulate(seq_by_resp)
    is_new_max = seq_by_resp >= prefix_max
    argmax_by_resp = np.maximum.accumulate(np.where(is_new_max, np.arange(len(by_resp)), 0))
    done_before = np.searchsorted(resp_sorted, r_inv, side="left")
    has_pred = done_before > 0
    best = np.where(has_pred, prefix_max[np.maximum(done_before - 1, 0)], INITIAL_SEQ)
    violating = np.flatnonzero(has_pred & (best > r_seq))
    violations: list[InversionViolation] = []
    for i in violating:
        w = by_resp[argmax_by_resp[done_before[i] - 1]]
        violations.append(
            InversionViolation(int(reads[w]), int(best[i]), int(reads[i]), int(r_seq[i]))
        )
    return violations


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
    reads, writes = _validate(h)
    return VerificationReport(
        no_past=_no_past(h, reads, writes),
        inversions=_inversions(h, reads),
        torn_reads=check_integrity(h),
    )
