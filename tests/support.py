"""Test apparatus: brute-force linearization oracle, history generator, mutant.

The oracle is deliberately independent of the incremental checker: it
enumerates linear extensions of the real-time partial order and replays
register semantics, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import random

from arcreg import ArcRegister, OpRecord
from arcreg.arc import ArcWriter, COUNTER_MASK, INDEX_SHIFT
from arcreg.api import ConfigurationError, InvariantViolation
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
        size = len(data)
        if not 1 <= size <= reg.max_size:
            raise ConfigurationError("write does not fit max_size")
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
