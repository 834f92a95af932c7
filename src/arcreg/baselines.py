"""Comparison registers: readers-field, a multi-copy construction, a spinlock.

The readers-field register follows its published protocol; the other two
are reconstructions for benchmark parity, not bit-exact ports, and document
the liberties taken. All three honor the shared register
contract (single writer, N readers, views stable until the reader's next
operation) and are validated by the same history checks as the primary
register, which is the arbiter of their correctness.
"""

from __future__ import annotations

import time

from .api import InvariantViolation, Register, RF_INDEX_BITS, RF_MAX_READERS
from .atomics import AtomicU64


# ---------------------------------------------------------------------------
# Readers-field register
# ---------------------------------------------------------------------------

_RF_INDEX_SHIFT = 64 - RF_INDEX_BITS


class RfRegister(Register):
    """Readers-field register: one presence bit per reader, N+2 buffers.

    The readers-field construction of Larsson, Gidenstam, Ha, Papatriantafilou
    and Tsigas ("Multiword atomic read/write registers on multiprocessor
    systems", ACM JEA 2009). One 64-bit status word holds the current
    buffer's index in its top 6 bits and one presence bit per reader in the
    other 58, hence the hard 58-reader cap.

    A read is one fetch-or of the reader's bit; the index in the returned
    word names the buffer to read. Exactly one RMW per read, with no branch,
    whether or not the value moved on. A write copies into a free buffer
    and publishes it with one exchange that also clears every presence bit.
    The bits it swapped out name the readers that may still hold the
    retired buffer; the writer records that buffer in its per-reader trace.
    A reader's trace entry changes only after the reader has set its bit
    again, that is, after its next read, so the buffer it holds stays out
    of reach until then. The writer avoids the current buffer and the N
    traced ones, so N+2 buffers always leave one free.

    The writer keeps one count per buffer: the trace entries that name it,
    plus one on the current buffer. A buffer is free exactly when its count
    is 0, so the lowest free buffer, the one the rule "neither current nor
    traced" picks, is the first 0 in the counts. Each buffer publishes its
    ``(content, size)`` pair as ``value``, set before the exchange that
    lets a reader find it, so no read allocates.
    """

    max_readers = RF_MAX_READERS

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(n_readers, max_size)
        self._buffers = self._content_buffers(n_readers + 2, initial)
        # status = index << _RF_INDEX_SHIFT | presence bits; buffer 0 current,
        # no readers.
        self._status = AtomicU64(0)

    def rmw_counters(self) -> tuple[int, int]:
        """One fetch-or per read and one exchange per write."""
        return sum(r.reads for r in self._readers), self._writes()

    def _make_reader(self, reader_id: int) -> "RfReader":
        return RfReader(self, reader_id)

    def _make_writer(self) -> "RfWriter":
        return RfWriter(self)


class RfReader:
    __slots__ = ("_status", "_buffers", "reader_id", "_bit", "reads")

    def __init__(self, reg: RfRegister, reader_id: int) -> None:
        self._status = reg._status
        self._buffers = reg._buffers
        self.reader_id = reader_id
        self._bit = 1 << reader_id
        self.reads = 0

    def read(self):
        """Return ``(buffer, size)`` of the current value (one fetch-or)."""
        self.reads += 1
        return self._buffers[self._status.fetch_or(self._bit) >> _RF_INDEX_SHIFT].value

    def finish(self) -> None:
        """No-op; the writer's trace keeps the last buffer read out of reach."""


class RfWriter:
    """The single writer: picks a free buffer, copies, publishes, traces.

    ``_refs[b]`` counts the trace entries that name buffer b, plus one if b
    is current; it starts at ``[N+1, 0, ..., 0]``, every entry and the
    current unit on buffer 0. The writer keeps it exact as it goes: a
    write moves the current unit onto the buffer it publishes, and each
    reader the exchange swapped out moves its trace entry onto the retired
    buffer. A count is 0 exactly when its buffer is neither current nor
    traced, so ``_refs.index(0)`` is the lowest such buffer.
    """

    __slots__ = ("_reg", "_current", "_trace", "_refs", "writes")

    def __init__(self, reg: RfRegister) -> None:
        self._reg = reg
        self._current = 0
        # trace[r]: the retired buffer reader r may still hold. Buffer 0 is
        # current at start, so zeros need no sentinel.
        self._trace = [0] * reg.n_readers
        self._refs = [reg.n_readers + 1] + [0] * (len(reg._buffers) - 1)
        self.writes = 0

    def write(self, data) -> None:
        """Copy ``data`` into an untraced buffer and publish it (one RMW)."""
        reg = self._reg
        size = reg._fit(data)
        refs = self._refs
        try:
            target = refs.index(0)
        except ValueError:
            raise InvariantViolation(
                f"no free buffer: N={reg.n_readers}, current={self._current}, and all "
                f"{len(refs)} buffers held; trace accounting falsified "
                "(implementation bug)"
            ) from None
        buf = reg._buffers[target]
        buf.view[:size] = data
        if buf.value[1] != size:
            buf.value = buf.content, size
        old = reg._status.exchange(target << _RF_INDEX_SHIFT)
        retired = self._current
        if old >> _RF_INDEX_SHIFT != retired:
            raise InvariantViolation("published index drifted from writer state")
        refs[target] = 1
        readers = old ^ (retired << _RF_INDEX_SHIFT)
        # The current unit leaves the retired buffer, and every swapped-out
        # reader's trace entry moves onto it. No entry names the current
        # buffer, so no old entry is the retired one.
        refs[retired] += readers.bit_count() - 1
        trace = self._trace
        while readers:
            low = readers & -readers
            reader = low.bit_length() - 1
            refs[trace[reader]] -= 1
            trace[reader] = retired
            readers ^= low
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

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(n_readers, max_size)
        size = self._fit(initial)
        snap0 = (0, size, bytearray(initial))  # one fresh buffer per value, not a slot
        self._wcell = _Cell(snap0)
        self._rcells = [_Cell(snap0) for _ in range(n_readers)]

    @property
    def content_buffer_count(self) -> int:
        """Number of content buffers this register allocated (exact).

        One for the initial value, a ``bytearray`` per write and a ``bytes``
        copy per read: derived from the handles' operation counts, which
        count exactly the calls that reached their allocation.
        """
        return 1 + self._writes() + sum(r.reads for r in self._readers)

    def rmw_counters(self) -> tuple[int, int]:
        """Always ``(0, 0)``: plain loads and stores only."""
        return 0, 0

    def _make_reader(self, reader_id: int) -> "PetersonReader":
        return PetersonReader(self, reader_id)

    def _make_writer(self) -> "PetersonWriter":
        return PetersonWriter(self)


class PetersonReader:
    __slots__ = ("_reg", "reader_id", "reads")

    def __init__(self, reg: PetersonRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self.reads = 0

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
    __slots__ = ("_reg", "_seq", "writes")

    def __init__(self, reg: PetersonRegister) -> None:
        self._reg = reg
        self._seq = 0
        self.writes = 0

    def write(self, data) -> None:
        reg = self._reg
        size = reg._fit(data)
        content = bytearray(data)  # one copy: a fresh buffer per write
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

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(n_readers, max_size)
        self._word = AtomicU64(0)
        (self._buffer,) = self._content_buffers(1, initial)

    def rmw_counters(self) -> tuple[int, int]:
        """The readers' tallies, and one fetch-or and one fetch-and per write."""
        return sum(r.rmw_ops for r in self._readers), 2 * self._writes()

    def _make_reader(self, reader_id: int) -> "RwlockReader":
        return RwlockReader(self, reader_id)

    def _make_writer(self) -> "RwlockWriter":
        return RwlockWriter(self)


def _spin(step: int) -> None:
    if step % _SPIN_YIELD_EVERY == 0:
        time.sleep(0)


class RwlockReader:
    __slots__ = ("_reg", "reader_id", "_holding", "reads", "rmw_ops")

    def __init__(self, reg: RwlockRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self._holding = False
        self.reads = 0
        self.rmw_ops = 0

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
        return reg._buffer.value

    def finish(self) -> None:
        if self._holding:
            self._reg._word.add_and_fetch(-1)
            self.rmw_ops += 1
            self._holding = False


class RwlockWriter:
    __slots__ = ("_reg", "writes")

    def __init__(self, reg: RwlockRegister) -> None:
        self._reg = reg
        self.writes = 0

    def write(self, data) -> None:
        reg = self._reg
        size = reg._fit(data)  # a rejected source never takes the lock
        word = reg._word
        word.fetch_or(_WRITER_BIT)
        try:
            step = 0
            while word.load() & _READER_COUNT_MASK:
                step += 1
                _spin(step)
            buf = reg._buffer
            buf.view[:size] = data
            if buf.value[1] != size:
                buf.value = buf.content, size
        finally:
            # Whatever interrupts the wait or the copy, the writer bit must
            # drop, or every reader spins forever.
            word.fetch_and(~_WRITER_BIT)
        self.writes += 1
