"""Test apparatus: brute-force linearization oracle, history generators,
the reference history checker, word-level RMW counting, ARC's accounting
checks, and a mutant.

The oracle is deliberately independent of the incremental checker: it
enumerates linear extensions of the real-time partial order and replays
register semantics, so agreement between the two is meaningful evidence.

RMW and probe counts are measured at the ``AtomicU64`` words, not taken
from the handles: ``instrument`` swaps counting words into a register, and
``run_schedule`` drives it from one thread, where the change in a word
count across an operation is exactly that operation's count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from arcreg import ArcRegister, OpRecord, RfRegister, RwlockRegister, encode_versioned
from arcreg.arc import ArcWriter, COUNTER_MASK, INDEX_SHIFT
from arcreg.api import InvariantViolation
from arcreg.atomics import AtomicU64
from arcreg.history import (
    INITIAL_SEQ,
    KIND_READ,
    KIND_WRITE,
    CorruptedHistoryError,
    History,
    InversionViolation,
    RegularityViolation,
    VerificationReport,
    check_integrity,
)


def linearizable_by_search(records: list[OpRecord]) -> bool:
    """Brute-force linearization search over a small history.

    Tries every total order of the operations that extends real-time
    precedence (a -> b iff a responds strictly before b is invoked),
    replaying single-register semantics: a read is legal exactly when it
    returns the most recently placed write's seq (or the initial value).
    Exponential; intended for histories of up to ~10 operations.
    """
    n = len(records)
    preds: list[int] = [0] * n  # bitmask of operations that must come first
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            if i != j and a.response_ts < b.invocation_ts:
                preds[j] |= 1 << i
    writes_sorted = sorted(
        (r.seq for r in records if r.kind == "write")
    )
    if len(set(writes_sorted)) != len(writes_sorted):
        raise ValueError("duplicate write seq in history")

    full = (1 << n) - 1
    dead: set[tuple[int, int]] = set()

    def extend(placed: int, state: int) -> bool:
        if placed == full:
            return True
        key = (placed, state)
        if key in dead:
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (preds[i] & ~placed):
                continue
            op = records[i]
            if op.kind == "write":
                if extend(placed | bit, op.seq):
                    return True
            elif op.seq == state:
                if extend(placed | bit, state):
                    return True
        dead.add(key)
        return False

    return extend(0, INITIAL_SEQ)


def random_small_history(rng: random.Random, max_ops: int = 8) -> list[OpRecord]:
    """Generate a random single-writer register history of <= max_ops ops.

    Every read returns the seq of some write in the history (or the initial
    value); reads may be stale, fresh, concurrent, or even "from the
    future" so that both checker verdicts are well exercised.
    """
    n_writes = rng.randint(0, 3)
    n_reads = rng.randint(1, max_ops - n_writes)
    horizon = 40

    # Ops of one thread are strictly separated (gap >= 1): successive calls
    # on one thread never share a timestamp, and program order must agree
    # with the recorded order. Cross-thread boundary ties stay possible.
    records: list[OpRecord] = []
    t = rng.randint(0, 3)
    for seq in range(1, n_writes + 1):
        inv = t + rng.randint(0, 4)
        resp = inv + rng.randint(0, 6)
        records.append(OpRecord(0, "write", inv, resp, seq))
        t = resp + rng.randint(1, 3)

    n_threads = rng.randint(1, min(3, n_reads))
    choices = list(range(0, n_writes + 1))
    for tid in range(1, n_threads + 1):
        t = rng.randint(0, 6)
        for _ in range(n_reads // n_threads + (1 if tid <= n_reads % n_threads else 0)):
            inv = t + rng.randint(0, 5)
            resp = inv + rng.randint(0, 8)
            if resp > horizon:
                break
            records.append(OpRecord(tid, "read", inv, resp, rng.choice(choices)))
            t = resp + rng.randint(1, 3)
    return records


#: The ways ``random_raw_history`` can break a history, one per
#: ``CorruptedHistoryError`` the checker raises.
CORRUPTIONS = (
    "invocation-after-response",
    "write-seq-not-increasing",
    "write-seq-initial",
    "writes-overlap",
    "thread-overlap",
    "unknown-seq",
    "unknown-kind",
)

#: Row orders ``arrange_rows`` produces: recorder order (threads grouped, in
#: program order), a shuffle, and sorted by invocation as a saved file may be.
ROW_ORDERS = ("grouped", "shuffled", "time-sorted")


def random_raw_history(rng: random.Random, corruption: str | None = None) -> list[tuple]:
    """Generate rows ``(thread, kind, inv, resp, seq, intact)`` of a small history.

    Thread 0 writes increasing seqs, consecutive or with gaps, and may also
    read; threads 1..3 read seqs drawn from the writes and the initial
    value, so stale, future and inverted reads are all common, and 1 read
    in 8 is torn. Timestamps are small so that boundary ties are frequent. Rows come grouped by thread,
    each thread in program order. ``corruption`` (one of ``CORRUPTIONS``)
    breaks the history in that way, when it has an operation to break.
    """
    rows: list[list[int]] = []
    values = [INITIAL_SEQ]
    max_gap = rng.choice((1, 1, 3))  # seqs 1, 2, .. or with gaps
    t = rng.randint(0, 3)
    for _ in range(rng.randint(0, 4)):
        values.append(values[-1] + rng.randint(1, max_gap))
        inv = t + rng.randint(0, 3)
        resp = inv + rng.randint(0, 4)
        rows.append([0, KIND_WRITE, inv, resp, values[-1], 1])
        t = resp + rng.randint(0, 2)
    if rng.random() < 0.2:  # the writer reads after its last write
        inv = t + rng.randint(0, 2)
        rows.append([0, KIND_READ, inv, inv + rng.randint(0, 3), rng.choice(values), 1])
    for tid in range(1, rng.randint(1, 3) + 1):
        t = rng.randint(0, 6)
        for _ in range(rng.randint(0, 4)):
            inv = t + rng.randint(0, 4)
            resp = inv + rng.randint(0, 6)
            intact = 0 if rng.random() < 0.125 else 1
            rows.append([tid, KIND_READ, inv, resp, rng.choice(values), intact])
            t = resp + rng.randint(0, 2)
    writes = [r for r in rows if r[1] == KIND_WRITE]
    reads = [r for r in rows if r[1] == KIND_READ]
    if corruption == "invocation-after-response" and rows:
        row = rng.choice(rows)
        row[3] = row[2] - rng.randint(1, 3)
    elif corruption == "write-seq-not-increasing" and len(writes) > 1:
        k = rng.randrange(len(writes) - 1)
        writes[k + 1][4] = writes[k][4] - rng.randint(0, 1)
    elif corruption == "write-seq-initial" and writes:
        rng.choice(writes)[4] = INITIAL_SEQ - rng.randint(0, 2)
    elif corruption == "writes-overlap" and len(writes) > 1:
        k = rng.randrange(len(writes) - 1)
        writes[k + 1][2] = writes[k][3] - rng.randint(1, 2)
        writes[k + 1][3] = max(writes[k + 1][3], writes[k + 1][2])
    elif corruption == "thread-overlap" and reads:
        row = rng.choice(reads)
        mates = [r for r in rows if r[0] == row[0] and r is not row]
        if mates:  # start both at once, each lasting at least one tick
            mate = rng.choice(mates)
            row[2] = mate[2]
            row[3] = max(row[3], row[2] + 1)
            mate[3] = max(mate[3], mate[2] + 1)
    elif corruption == "unknown-seq" and reads:
        unknown = [-1, values[-1] + rng.randint(1, 3)]
        unknown += sorted(set(range(values[-1])) - set(values))  # gaps
        rng.choice(reads)[4] = rng.choice(unknown)
    elif corruption == "unknown-kind" and rows:
        rng.choice(rows)[1] = rng.choice((-1, 2, 5))
    return [tuple(r) for r in rows]


def arrange_rows(rows: list[tuple], order: str, rng: random.Random) -> History:
    """Build a ``History`` from ``random_raw_history`` rows in one of ``ROW_ORDERS``."""
    rows = list(rows)
    if order == "shuffled":
        rng.shuffle(rows)
    elif order == "time-sorted":
        rows.sort(key=lambda r: r[2])
    elif order != "grouped":
        raise ValueError(f"unknown row order {order!r}")
    return History(*(zip(*rows) if rows else ([],) * 6))


#: The mutant's copy granularity: word-aligned, and small enough that a
#: 4 KiB write spans several chunks a thread switch can fall between.
MUTANT_COPY_CHUNK = 1024


class BrokenArcWriter(ArcWriter):
    """Mutant writer: the content copy is moved after the publish step.

    Readers that bind to the slot between the exchange and the copy observe
    the previous occupant's bytes (stale values) or a mid-copy mixture
    (torn payloads). The correct registers fill a slot with one memcpy, so
    this mutant copies in word-aligned chunks itself: a thread switch
    between two chunks is what exposes a torn payload. Exists to prove the
    verification harness has teeth.
    """

    def write(self, data) -> None:
        reg = self._reg
        size = reg._fit(data)
        slot_idx = self.find_free_slot()  # W1
        slot = reg._slots[slot_idx]
        slot.r_start = 0
        slot.r_end.store(0)
        old = reg._current.exchange(slot_idx << INDEX_SHIFT)  # W2 first: wrong
        # Copy after publish: the injected bug.
        source = memoryview(data)
        for off in range(0, size, MUTANT_COPY_CHUNK):
            end = min(off + MUTANT_COPY_CHUNK, size)
            slot.view[off:end] = source[off:end]
        slot.size = size
        old_slot = old >> INDEX_SHIFT
        freed = old & COUNTER_MASK
        if freed > reg.n_readers:
            raise InvariantViolation("frozen presence count exceeds N")
        reg._slots[old_slot].r_start = freed  # W3
        self.last_slot = slot_idx
        self.writes += 1


class BrokenArcRegister(ArcRegister):
    """ArcRegister with the mutated writer; reader side untouched."""

    def _make_writer(self) -> BrokenArcWriter:
        return BrokenArcWriter(self)


# -- word-level counting ------------------------------------------------------


class WordCounts:
    """Tallies shared by a group of ``CountingWord``s."""

    __slots__ = ("rmw", "loads")

    def __init__(self) -> None:
        self.rmw = 0
        self.loads = 0


class NarrowWord(AtomicU64):
    """An ``AtomicU64`` that wraps at ``bits`` bits, as a narrower word would.

    Set ARC's ``arc.INDEX_SHIFT`` to k and ``arc.COUNTER_MASK`` to 2**k - 1,
    and swap this word, at 2k bits, in for ``_current``: ARC's reader cap
    then shows at a width a test can run N = 2**k - 1 readers at. Plain
    attribute updates, exact when one thread drives the register.
    """

    __slots__ = ("mask",)

    def __init__(self, value: int, bits: int) -> None:
        self.mask = (1 << bits) - 1
        super().__init__(value & self.mask)

    def store(self, value: int) -> None:
        self._value = value & self.mask

    def add_and_fetch(self, delta: int) -> int:
        self._value = new = (self._value + delta) & self.mask
        return new

    def exchange(self, value: int) -> int:
        old, self._value = self._value, value & self.mask
        return old


class CountingWord(AtomicU64):
    """An ``AtomicU64`` that tallies its RMWs and plain loads into ``counts``.

    The tallies are plain attribute increments, exact when one thread
    drives the register.
    """

    __slots__ = ("counts",)

    def __init__(self, value: int, counts: WordCounts) -> None:
        super().__init__(value)
        self.counts = counts

    def load(self) -> int:
        self.counts.loads += 1
        return AtomicU64.load(self)

    def add_and_fetch(self, delta: int) -> int:
        self.counts.rmw += 1
        return AtomicU64.add_and_fetch(self, delta)

    def exchange(self, value: int) -> int:
        self.counts.rmw += 1
        return AtomicU64.exchange(self, value)

    def fetch_or(self, bits: int) -> int:
        self.counts.rmw += 1
        return AtomicU64.fetch_or(self, bits)

    def fetch_and(self, bits: int) -> int:
        self.counts.rmw += 1
        return AtomicU64.fetch_and(self, bits)


@dataclass
class Meter:
    """Word counts of one instrumented register.

    ``sync`` counts ARC's ``_current``, RF's ``_status`` or rwlock's
    ``_word``; ``r_end`` counts ARC's slot release counters, whose loads are
    W1's probes (W1 is the only step that loads an ``r_end``).
    """

    sync: WordCounts = field(default_factory=WordCounts)
    r_end: WordCounts = field(default_factory=WordCounts)

    @property
    def rmw(self) -> int:
        return self.sync.rmw + self.r_end.rmw


def instrument(reg) -> Meter:
    """Swap counting words in for a register's atomic words (ARC, RF, rwlock).

    Call it before any handle is made: an RF reader keeps the status word
    it was made with.
    """
    if reg._readers or reg._writer is not None:
        raise ValueError("instrument the register before making handles")
    meter = Meter()
    if isinstance(reg, ArcRegister):
        reg._current = CountingWord(reg._current.load(), meter.sync)
        for slot in reg._slots:
            slot.r_end = CountingWord(slot.r_end.load(), meter.r_end)
    elif isinstance(reg, RfRegister):
        reg._status = CountingWord(reg._status.load(), meter.sync)
    elif isinstance(reg, RwlockRegister):
        reg._word = CountingWord(reg._word.load(), meter.sync)
    else:
        raise TypeError(f"no atomic words to count in {type(reg).__name__}")
    return meter


class OpCost(NamedTuple):
    """One operation of a schedule and what it cost at the words."""

    kind: str  # "read" or "write"
    rmw: int  # RMWs on every instrumented word
    probes: int  # r_end loads: W1 probes (always 0 for RF and for reads)
    moved: bool  # a read returned a newer value than its reader's last read
    seq: int  # the version written, or the version the read returned


def run_schedule(reg, meter: Meter, ops: int = 20_000, write_every: int = 10,
                 seed: int = 9) -> list[OpCost]:
    """Drive ``reg`` through a seeded single-thread schedule; cost each op.

    ``reg`` holds a version-0 value. The driver makes all ``n_readers``
    reader handles and the writer. Each op is a write with probability
    1/``write_every``, otherwise a read by a uniformly chosen reader; write
    k stores ``encode_versioned(k, max_size)``. A rwlock reader holds its
    shared lock from one read to the next, so before each write every
    rwlock reader calls ``finish()``, outside the write's cost.
    """
    return list(iter_schedule(reg, meter, ops, write_every, seed))


def iter_schedule(reg, meter: Meter, ops: int = 20_000, write_every: int = 10,
                  seed: int = 9) -> Iterator[OpCost]:
    """``run_schedule`` one op at a time: a caller keeps the ops that
    completed before one raised."""
    readers = [reg.new_reader() for _ in range(reg.n_readers)]
    writer = reg.writer()
    blocking = isinstance(reg, RwlockRegister)
    seen = [0] * len(readers)
    rng = random.Random(seed)
    for _ in range(ops):
        write = rng.randrange(write_every) == 0
        if write and blocking:
            for reader in readers:
                reader.finish()
        rmw, probes = meter.rmw, meter.r_end.loads
        if write:
            seq = writer.writes + 1
            writer.write(encode_versioned(seq, reg.max_size))
            kind, moved = "write", True
        else:
            i = rng.randrange(len(readers))
            buf, _ = readers[i].read()
            seq = int.from_bytes(buf[:8], "little")
            kind, moved = "read", seq != seen[i]
            seen[i] = seq
        yield OpCost(kind, meter.rmw - rmw, meter.r_end.loads - probes, moved, seq)


def schedule_history(costs: list[OpCost]) -> History:
    """The history of a schedule's ops: one op per tick, in schedule order.

    The writer is thread 0 and every read is thread 1; each op responds
    before the next is invoked, so the history is atomic iff every read
    returns the newest write's version.
    """
    return History(
        [0 if c.kind == "write" else 1 for c in costs],
        [KIND_WRITE if c.kind == "write" else KIND_READ for c in costs],
        range(0, 2 * len(costs), 2),
        range(1, 2 * len(costs), 2),
        [c.seq for c in costs],
        [1] * len(costs),
    )


# -- ARC's accounting checks --------------------------------------------------


class CheckingWord(AtomicU64):
    """ARC's ``_current`` with two accounting checks at its RMWs.

    After each add-and-fetch (R4) the presence counter must be at most N.
    At each exchange (W2) the retired index must be the writer's
    ``last_slot``, the slot W3 is about to freeze.
    """

    __slots__ = ("reg",)

    def __init__(self, value: int, reg: "CheckedArcRegister") -> None:
        super().__init__(value)
        self.reg = reg

    def add_and_fetch(self, delta: int) -> int:
        tmp = AtomicU64.add_and_fetch(self, delta)
        reg = self.reg
        reg.checks += 1
        if (tmp & COUNTER_MASK) > reg.n_readers:
            raise InvariantViolation(
                f"presence counter {tmp & COUNTER_MASK} exceeds N={reg.n_readers}"
            )
        return tmp

    def exchange(self, value: int) -> int:
        old = AtomicU64.exchange(self, value)
        reg = self.reg
        reg.checks += 1
        last_slot = reg._writer.last_slot
        if old >> INDEX_SHIFT != last_slot:
            raise InvariantViolation(
                f"retired index {old >> INDEX_SHIFT} drifted from writer state {last_slot}"
            )
        return old


class CheckedArcWriter(ArcWriter):
    """ARC writer that checks the outstanding-reads sum before each write."""

    def write(self, data) -> None:
        reg = self._reg
        # Single-writer snapshot: r_start values are the writer's own frozen
        # stores and r_end only grows, so the sum is a conservative upper
        # bound on outstanding presence units; it can never exceed N.
        total = 0
        for slot in reg._slots:
            total += slot.r_start - slot.r_end.load()
        reg.checks += 1
        if total > reg.n_readers:
            raise InvariantViolation(
                f"outstanding-reads accounting {total} exceeds N={reg.n_readers}"
            )
        super().write(data)


class CheckedArcRegister(ArcRegister):
    """ArcRegister with its three accounting checks armed.

    ``checks`` counts the checks run. Concurrent handles bump it without a
    lock, so a lost update can only undercount.
    """

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(initial, n_readers, max_size)
        self.checks = 0
        self._current = CheckingWord(self._current.load(), self)

    def _make_writer(self) -> CheckedArcWriter:
        return CheckedArcWriter(self)


# -- reference checker ----------------------------------------------------------
#
# The history checker as it stood before its private part became a few
# linear passes: a per-thread sort loop, a second sort of the writes and
# ``np.isin`` for known seqs. Kept as it was, as the oracle the fast checker
# must match report for report, witnesses and error messages included; the
# one addition is the refusal of kind codes other than read and write, a
# separate mask that the fast checker gets from its two index lists.


def reference_check_history(h: History) -> VerificationReport:
    """``check_history`` computed by the reference checker."""
    reads, writes = _reference_validate(h)
    return VerificationReport(
        no_past=_reference_no_past(h, reads, writes),
        inversions=_reference_inversions(h, reads),
        torn_reads=check_integrity(h),
    )


def _reference_validate(h: History) -> tuple[np.ndarray, np.ndarray]:
    """Sanity-check the history; return (read indices, write indices)."""
    if len(h) and (h.invocation > h.response).any():
        raise CorruptedHistoryError("operation with invocation after response")
    unknown_kind = (h.kind != KIND_READ) & (h.kind != KIND_WRITE)
    if unknown_kind.any():
        bad = h.kind[unknown_kind][0]
        raise CorruptedHistoryError(f"operation kind {bad} is neither read nor write")
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


def _reference_no_past(h: History, reads: np.ndarray, writes: np.ndarray) -> list[RegularityViolation]:
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


def _reference_inversions(h: History, reads: np.ndarray) -> list[InversionViolation]:
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
