"""Test apparatus: brute-force linearization oracle, history generator,
word-level RMW counting, ARC's accounting checks, and a mutant.

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
from typing import NamedTuple

from arcreg import ArcRegister, OpRecord, RfRegister, encode_versioned
from arcreg.arc import ArcWriter, COUNTER_MASK, INDEX_SHIFT
from arcreg.api import InvariantViolation
from arcreg.atomics import AtomicU64
from arcreg.history import INITIAL_SEQ


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
        self.rmw_ops += 1
        # Copy after publish: the injected bug.
        target, source = memoryview(slot.content), memoryview(data)
        for off in range(0, size, MUTANT_COPY_CHUNK):
            end = min(off + MUTANT_COPY_CHUNK, size)
            target[off:end] = source[off:end]
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

    ``sync`` counts ARC's ``_current`` or RF's ``_status``; ``r_end`` counts
    ARC's slot release counters, whose loads are W1's probes (W1 is the only
    step that loads an ``r_end``).
    """

    sync: WordCounts = field(default_factory=WordCounts)
    r_end: WordCounts = field(default_factory=WordCounts)

    @property
    def rmw(self) -> int:
        return self.sync.rmw + self.r_end.rmw


def instrument(reg) -> Meter:
    """Swap counting words in for the atomic words of an ARC or RF register.

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
    else:
        raise TypeError(f"no atomic words to count in {type(reg).__name__}")
    return meter


class OpCost(NamedTuple):
    """One operation of a schedule and what it cost at the words."""

    kind: str  # "read" or "write"
    rmw: int  # RMWs on every instrumented word
    probes: int  # r_end loads: W1 probes (always 0 for RF and for reads)
    moved: bool  # a read returned a newer value than its reader's last read


def run_schedule(reg, meter: Meter, ops: int = 20_000, write_every: int = 10,
                 seed: int = 9) -> list[OpCost]:
    """Drive ``reg`` through a seeded single-thread schedule; cost each op.

    ``reg`` holds a version-0 value. The driver makes all ``n_readers``
    reader handles and the writer. Each op is a write with probability
    1/``write_every``, otherwise a read by a uniformly chosen reader; write
    k stores ``encode_versioned(k, max_size)``.
    """
    readers = [reg.new_reader() for _ in range(reg.n_readers)]
    writer = reg.writer()
    seen = [0] * len(readers)
    rng = random.Random(seed)
    costs = []
    for _ in range(ops):
        rmw, probes = meter.rmw, meter.r_end.loads
        if rng.randrange(write_every) == 0:
            writer.write(encode_versioned(writer.writes + 1, reg.max_size))
            kind, moved = "write", True
        else:
            i = rng.randrange(len(readers))
            buf, _ = readers[i].read()
            seq = int.from_bytes(buf[:8], "little")
            kind, moved = "read", seq != seen[i]
            seen[i] = seq
        costs.append(OpCost(kind, meter.rmw - rmw, meter.r_end.loads - probes, moved))
    return costs


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
