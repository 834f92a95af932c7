"""Comparison registers: readers-field, a multi-copy construction, a spinlock.

These are reconstructions for benchmark parity, not bit-exact ports; each
class documents the liberties taken. All three honor the shared register
contract (single writer, N readers, views stable until the reader's next
operation) and are validated by the same history checks as the primary
register, which is the arbiter of their correctness.
"""

from __future__ import annotations

import threading
import time

from .api import (
    CapacityError,
    InvariantViolation,
    Register,
    RegisterKind,
    RF_MAX_READERS,
)
from .atomics import AtomicU64


class _Buffer:
    __slots__ = ("size", "content")

    def __init__(self, content: bytearray) -> None:
        self.size = 0
        self.content = content


# ---------------------------------------------------------------------------
# Readers-field register
# ---------------------------------------------------------------------------

_RF_INDEX_SHIFT = 58
_RF_MASK = (1 << 58) - 1
_RF_NO_FIELD = -1


class RfRegister(Register):
    """Identified-readers register: one presence bit per reader.

    A 64-bit status word packs a 58-bit reader presence mask (one bit per
    reader, hence the hard 58-reader cap) next to a 6-bit current-buffer
    index. Every read marks itself visible with a fetch-or on the status
    word -- at least one RMW per read, unconditionally -- and announces the
    buffer it reads in its per-reader field; the writer's free-buffer
    search walks the fields of all present readers (O(N)) and avoids the
    announced buffers plus the current one, so N+2 buffers always leave one
    free.

    Reconstruction notes: the original protocol is described here only by
    its observable behavior (one fetch-or per read, O(N) writes, 58-reader
    cap, N+2 buffers). To make bit-plus-field announcement indivisible --
    which single-word RMW hardware achieves with a trick this codebase does
    not reproduce -- the bind step performs the OR and the field store under
    the status word's own lock and is counted as one RMW. A reader's
    presence bit is released at its next slot-transition read, mirroring
    the primary register's consumption model, so returned views stay stable
    while held.
    """

    kind = RegisterKind.RF

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        if n_readers > RF_MAX_READERS:
            raise CapacityError(
                f"readers-field register admits at most {RF_MAX_READERS} "
                f"readers, got {n_readers}"
            )
        super().__init__(n_readers, max_size)
        size = self._fit(initial)
        self._buffers = [_Buffer(self._new_content_buffer()) for _ in range(n_readers + 2)]
        self._copy_in(self._buffers[0].content, initial)
        self._buffers[0].size = size
        # status = index << 58 | presence mask; buffer 0 current, no readers.
        self._status_lock = threading.Lock()
        self._status = 0
        self._fields = [_RF_NO_FIELD] * n_readers

    # Status-word operations. Each takes the word's lock exactly like the
    # AtomicU64 RMWs (acquire/try/finally, no ``with``) and counts as one
    # RMW instruction.

    def _status_fetch_or(self, bits: int) -> int:
        self._status_lock.acquire()
        try:
            old = self._status
            self._status = old | bits
        finally:
            self._status_lock.release()
        return old

    def _status_fetch_and(self, bits: int) -> int:
        self._status_lock.acquire()
        try:
            old = self._status
            self._status = old & bits
        finally:
            self._status_lock.release()
        return old

    def _status_bind(self, reader_id: int, bit: int) -> int:
        # Composite bind: set the presence bit, read the current index, and
        # announce it in the reader's field as one indivisible step.
        self._status_lock.acquire()
        try:
            self._status |= bit
            idx = self._status >> _RF_INDEX_SHIFT
            self._fields[reader_id] = idx
        finally:
            self._status_lock.release()
        return idx

    def _status_publish(self, new_index: int) -> int:
        self._status_lock.acquire()
        try:
            old = self._status
            self._status = (old & _RF_MASK) | (new_index << _RF_INDEX_SHIFT)
        finally:
            self._status_lock.release()
        return old

    def _make_reader(self, reader_id: int) -> "RfReader":
        return RfReader(self, reader_id)

    def _make_writer(self) -> "RfWriter":
        return RfWriter(self)


class RfReader:
    __slots__ = ("_reg", "reader_id", "_bit", "_bound", "reads", "rmw_ops", "max_read_rmw")

    def __init__(self, reg: RfRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self._bit = 1 << reader_id
        self._bound = _RF_NO_FIELD  # no binding until the first read
        self.reads = 0
        self.rmw_ops = 0
        self.max_read_rmw = 0

    def read(self):
        """Return ``(buffer, size)``; always executes at least one RMW."""
        reg = self._reg
        self.reads += 1
        status = reg._status_fetch_or(self._bit)  # visible-read mark
        rmw = 1
        idx = status >> _RF_INDEX_SHIFT
        if idx != self._bound:
            # Value moved on: release the old binding, then atomically
            # rebind-and-announce on whatever is current at that instant.
            reg._status_fetch_and(~self._bit)
            self._bound = reg._status_bind(self.reader_id, self._bit)
            rmw = 3
        self.rmw_ops += rmw
        if rmw > self.max_read_rmw:
            self.max_read_rmw = rmw
        buf = reg._buffers[self._bound]
        return buf.content, buf.size

    def finish(self) -> None:
        """No-op; a parked presence bit only retires one buffer."""


class RfWriter:
    __slots__ = ("_reg", "_current", "writes", "rmw_ops", "max_scan_len")

    def __init__(self, reg: RfRegister) -> None:
        self._reg = reg
        self._current = 0
        self.writes = 0
        self.rmw_ops = 0
        self.max_scan_len = 0

    def write(self, data) -> None:
        """Copy ``data`` into an untraced buffer and publish it (one RMW).

        Any reader bound to a buffer has its presence bit and field
        announcement set indivisibly, so the field walk below cannot miss
        a live binding; at most N fields plus the current buffer are
        forbidden, leaving at least one of the N+2 buffers free.
        """
        reg = self._reg
        size = reg._fit(data)
        mask = reg._status & _RF_MASK
        forbidden = {self._current}
        reader_id = 0
        while mask:
            if mask & 1:
                field = reg._fields[reader_id]
                if field != _RF_NO_FIELD:
                    forbidden.add(field)
            mask >>= 1
            reader_id += 1
        target = -1
        scanned = 0
        for idx in range(len(reg._buffers)):
            scanned += 1
            if idx not in forbidden:
                target = idx
                break
        if target < 0:
            raise InvariantViolation(
                "no free buffer among N+2: field accounting falsified "
                "(implementation bug)"
            )
        if scanned > self.max_scan_len:
            self.max_scan_len = scanned
        buf = reg._buffers[target]
        reg._copy_in(buf.content, data)
        buf.size = size
        old = reg._status_publish(target)
        self.rmw_ops += 1
        if old >> _RF_INDEX_SHIFT != self._current:
            raise InvariantViolation("published index drifted from writer state")
        self._current = target
        self.writes += 1


# ---------------------------------------------------------------------------
# Multi-copy (announce-array) register
# ---------------------------------------------------------------------------


class _Cell:
    """Single-owner publication cell; ``snap`` is (seq, size, bytes)."""

    __slots__ = ("snap",)

    def __init__(self, snap) -> None:
        self.snap = snap


class PetersonRegister(Register):
    """Classical plain-store construction: value copies plus handshakes.

    Variant implemented: the textbook announce-array construction for one
    writer and N readers built from atomic single-cell registers. The
    writer publishes (seq, value-copy) into its own cell; a reader collects
    the writer cell and every reader's report cell, takes the newest, and
    writes a fresh copy of what it read back into its own report cell
    before returning it. The write-back is what rules out new-old
    inversions between non-overlapping reads. N+1 content cells total.

    No RMW instructions are used anywhere -- only plain loads and stores.
    On weakly-ordered hardware every cell publication would need a memory
    fence; under the GIL each cell swap is a single sequentially-consistent
    reference store, which plays the role of the fenced multi-word stable
    copy in the original (bounded re-reads included). The per-operation
    full-value copies, the construction's defining cost, are kept: one copy
    per write, and one collect plus one write-back copy per read.
    """

    kind = RegisterKind.PETERSON

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(n_readers, max_size)
        size = self._fit(initial)
        self._allocated_buffers = n_readers + 1  # writer cell + report cells
        content = bytearray(size)  # one fresh buffer per value, not a slot
        self._copy_in(content, initial)
        snap0 = (0, size, content)
        self._wcell = _Cell(snap0)
        self._rcells = [_Cell(snap0) for _ in range(n_readers)]

    def _make_reader(self, reader_id: int) -> "PetersonReader":
        return PetersonReader(self, reader_id)

    def _make_writer(self) -> "PetersonWriter":
        return PetersonWriter(self)


class PetersonReader:
    __slots__ = ("_reg", "reader_id", "reads", "rmw_ops", "max_read_rmw")

    def __init__(self, reg: PetersonRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self.reads = 0
        self.rmw_ops = 0  # stays zero: plain-store protocol
        self.max_read_rmw = 0

    def read(self):
        reg = self._reg
        self.reads += 1
        best = reg._wcell.snap
        for cell in reg._rcells:
            snap = cell.snap
            if snap[0] > best[0]:
                best = snap
        # Report what we are about to return (full copy, unconditionally).
        reg._rcells[self.reader_id].snap = (best[0], best[1], bytes(memoryview(best[2])))
        return best[2], best[1]

    def finish(self) -> None:
        pass


class PetersonWriter:
    __slots__ = ("_reg", "_seq", "writes", "rmw_ops")

    def __init__(self, reg: PetersonRegister) -> None:
        self._reg = reg
        self._seq = 0
        self.writes = 0
        self.rmw_ops = 0

    def write(self, data) -> None:
        reg = self._reg
        size = reg._fit(data)
        content = bytearray(size)
        reg._copy_in(content, data)
        self._seq += 1
        reg._wcell.snap = (self._seq, size, content)
        self.writes += 1


# ---------------------------------------------------------------------------
# Reader-writer spinlock register
# ---------------------------------------------------------------------------

_WRITER_BIT = 1 << 63
_READER_COUNT_MASK = _WRITER_BIT - 1
_SPIN_YIELD_EVERY = 64


class RwlockRegister(Register):
    """Single buffer behind a writer-preference reader-writer spinlock.

    The lock word packs a writer bit over a reader count, manipulated with
    RMW instructions only. The writer sets its bit first (blocking new
    readers, so the single writer is never starved by a churning read
    load), spins until in-flight readers drain, then writes in place.
    Readers hold the shared lock from one ``read()`` to the next so the
    returned view stays stable; ``finish()`` drops it. Blocking by design:
    wait-freedom assertions do not apply, a reader that stops reading
    without ``finish()`` blocks the writer forever, and a thread that
    interleaves its own reads and writes must ``finish()`` before writing.

    Fairness note: with exactly one writer there is never writer/writer
    contention, so a writer ticket queue would order an empty line; the
    preference bit alone gives the intended behavior.
    """

    kind = RegisterKind.RWLOCK

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(n_readers, max_size)
        size = self._fit(initial)
        self._word = AtomicU64(0)
        self._content = self._new_content_buffer()
        self._copy_in(self._content, initial)
        self._size = size

    def _make_reader(self, reader_id: int) -> "RwlockReader":
        return RwlockReader(self, reader_id)

    def _make_writer(self) -> "RwlockWriter":
        return RwlockWriter(self)


def _spin(step: int) -> None:
    if step % _SPIN_YIELD_EVERY == 0:
        time.sleep(0)


class RwlockReader:
    __slots__ = ("_reg", "reader_id", "_holding", "reads", "rmw_ops", "max_read_rmw")

    def __init__(self, reg: RwlockRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self._holding = False
        self.reads = 0
        self.rmw_ops = 0
        self.max_read_rmw = 0

    def read(self):
        reg = self._reg
        word = reg._word
        self.reads += 1
        rmw = 0
        if self._holding:
            word.add_and_fetch(-1)
            rmw += 1
        step = 0
        while True:
            if word.load() & _WRITER_BIT:
                step += 1
                _spin(step)
                continue
            if word.add_and_fetch(1) & _WRITER_BIT:
                # Writer won the race after our increment: back out.
                word.add_and_fetch(-1)
                rmw += 2
                step += 1
                _spin(step)
                continue
            rmw += 1
            break
        self._holding = True
        self.rmw_ops += rmw
        if rmw > self.max_read_rmw:
            self.max_read_rmw = rmw
        return reg._content, reg._size

    def finish(self) -> None:
        if self._holding:
            self._reg._word.add_and_fetch(-1)
            self.rmw_ops += 1
            self._holding = False


class RwlockWriter:
    __slots__ = ("_reg", "writes", "rmw_ops")

    def __init__(self, reg: RwlockRegister) -> None:
        self._reg = reg
        self.writes = 0
        self.rmw_ops = 0

    def write(self, data) -> None:
        reg = self._reg
        size = reg._fit(data)
        word = reg._word
        word.fetch_or(_WRITER_BIT)
        self.rmw_ops += 1
        try:
            step = 0
            while word.load() & _READER_COUNT_MASK:
                step += 1
                _spin(step)
            reg._copy_in(reg._content, data)
            reg._size = size
        finally:
            # A source the copy rejects raises before any byte moves; the
            # writer bit must still drop, or every reader spins forever.
            word.fetch_and(~_WRITER_BIT)
            self.rmw_ops += 1
        self.writes += 1
