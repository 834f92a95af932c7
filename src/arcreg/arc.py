"""Anonymous-readers-counting register: wait-free (1,N) multi-word atomicity.

One 64-bit synchronization word, ``current``, carries the index of the slot
holding the newest value in its upper 32 bits and an anonymous presence
counter in its lower 32 bits. A reader binds to the newest slot with a
single add-and-fetch on ``current`` (placing one anonymous presence unit on
it) and releases its previous slot with one atomic increment of that slot's
``r_end``. The writer publishes with a single exchange, and the exchanged-out
counter value is frozen into the retired slot's ``r_start``; a slot is free
for reuse exactly when ``r_start == r_end``. With N+2 slots a free slot
always exists, so neither side ever waits or retries.

Step labels used throughout (``I1``, ``R1``..``R5``, ``W1``..``W3``) name
the individual algorithm steps and are referenced by the tests.

Concurrency contract: exactly one writer handle, at most N reader handles;
a handle is used by one thread at a time but may migrate between
operations. The W2 exchange must be a release, the R1 load a single untorn
acquire load, R3/R4 acquire-release RMWs, and the W3 freeze plus proposal
stores release stores. :mod:`arcreg.atomics` is sequentially consistent
under the GIL, which satisfies all of that.

Liveness caveat: a reader that stops reading keeps one presence unit parked
on its last slot forever, permanently retiring that one slot. The algorithm
assumes readers keep reading; with N+2 slots the writer still always finds
a free slot.
"""

from __future__ import annotations

from .api import (
    ARC_MAX_READERS,
    CapacityError,
    ConfigurationError,
    InvariantViolation,
    Register,
    RegisterKind,
)
from .atomics import AtomicU64

INDEX_SHIFT = 32
COUNTER_MASK = (1 << 32) - 1

#: Proposal word sentinel: no free-slot hint posted.
NO_PROPOSAL = -1


def pack(index: int, counter: int) -> int:
    """Pack a slot index (upper 32 bits) and presence counter (lower 32)."""
    return (index << INDEX_SHIFT) | counter


def unpack(raw: int) -> tuple[int, int]:
    """Split a packed synchronization word into (index, counter)."""
    return raw >> INDEX_SHIFT, raw & COUNTER_MASK


class _Slot:
    """One of the N+2 snapshot holders.

    ``r_start`` is written only by the writer (reset on reuse, frozen on
    retirement) and read by readers only as a free-slot hint; ``r_end`` is
    an atomic RMW counter because several readers may release the same slot
    concurrently.
    """

    __slots__ = ("r_start", "r_end", "size", "content")

    def __init__(self, content: bytearray) -> None:
        self.r_start = 0
        self.r_end = AtomicU64(0)
        self.size = 0
        self.content = content


class ArcRegister(Register):
    """Wait-free (1,N) register with anonymous reader counting.

    Args:
        initial: initial register value (1..max_size bytes).
        n_readers: N, between 1 and 2**32 - 2.
        max_size: slot capacity in bytes; every slot is pre-allocated at
            this size and writes of any size up to it are accepted.
        debug: arm the per-write accounting assertions (outstanding-reads
            bound and freeze bound); adds an O(N) scan per write.
    """

    kind = RegisterKind.ARC

    def __init__(self, initial, n_readers: int, max_size: int, *, debug: bool = False) -> None:
        if not 1 <= n_readers <= ARC_MAX_READERS:
            raise CapacityError(
                f"reader count must be in [1, 2**32 - 2], got {n_readers}"
            )
        super().__init__(n_readers, max_size)
        size = len(initial)
        if not 1 <= size <= max_size:
            raise ConfigurationError(
                f"initial value of {size} bytes does not fit max_size={max_size}"
            )
        self._debug = debug
        # I1 state: N+2 slots, all counters zero, slot 0 holds the initial
        # value, and current = pack(0, N) -- as if every reader already
        # started reading slot 0.
        self._slots = [_Slot(self._new_content_buffer()) for _ in range(n_readers + 2)]
        self._copy_in(self._slots[0].content, initial)
        self._slots[0].size = size
        self._current = AtomicU64(pack(0, n_readers))  # I1
        self._proposal = NO_PROPOSAL

    def _make_reader(self, reader_id: int) -> "ArcReader":
        return ArcReader(self, reader_id)

    def _make_writer(self) -> "ArcWriter":
        return ArcWriter(self)

    def _check_outstanding_reads_bound(self) -> None:
        # Single-writer snapshot: r_start values are the writer's own frozen
        # stores and r_end only grows, so the sum is a conservative upper
        # bound on outstanding presence units; it can never exceed N.
        total = 0
        for slot in self._slots:
            total += slot.r_start - slot.r_end.load()
        if total > self.n_readers:
            raise InvariantViolation(
                f"outstanding-reads accounting {total} exceeds N={self.n_readers}"
            )


class ArcReader:
    """Per-reader state: the slot this reader is bound to via one unit."""

    __slots__ = ("_reg", "reader_id", "last_index", "reads", "rmw_ops", "max_read_rmw")

    def __init__(self, reg: ArcRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self.last_index = 0  # init-time unit parked on slot 0
        self.reads = 0
        self.rmw_ops = 0
        self.max_read_rmw = 0

    def read(self):
        """Return ``(buffer, size)`` of the newest published value.

        Wait-free: no loops, no retries. The fast path (value unchanged
        since this reader's last read) executes zero RMW instructions; the
        slot-transition path executes exactly two (R3 increment, R4
        add-and-fetch). The returned buffer stays stable until this
        handle's next ``read()``.
        """
        reg = self._reg
        self.reads += 1
        index = reg._current.load() >> INDEX_SHIFT  # R1
        last = self.last_index
        if index == last:
            slot = reg._slots[last]
            return slot.content, slot.size  # R2: cached, no RMW
        reg._slots[last].r_end.add_and_fetch(1)  # R3: release previous slot
        self.propose_free_slot(last)
        tmp = reg._current.add_and_fetch(1)  # R4: bind to the newest slot
        self.rmw_ops += 2
        if self.max_read_rmw < 2:
            self.max_read_rmw = 2
        if reg._debug and (tmp & COUNTER_MASK) > reg.n_readers:
            raise InvariantViolation(
                f"presence counter {tmp & COUNTER_MASK} exceeds N={reg.n_readers}"
            )
        self.last_index = tmp >> INDEX_SHIFT  # R5
        slot = reg._slots[self.last_index]
        return slot.content, slot.size

    def propose_free_slot(self, released_slot: int) -> None:
        """Post ``released_slot`` as a free-slot hint if it looks free.

        Called right after this reader's R3 increment. If the release made
        ``r_end`` catch up with the frozen ``r_start``, the slot is free and
        its index is posted (unconditional overwrite of the single hint
        word). The writer revalidates before use, so stale hints are safe.
        """
        reg = self._reg
        slot = reg._slots[released_slot]
        if slot.r_end.load() == slot.r_start:
            reg._proposal = released_slot

    def finish(self) -> None:
        """No-op; a parked presence unit is harmless (see module caveat)."""


class ArcWriter:
    """The single writer: selects a free slot, copies, publishes, freezes."""

    __slots__ = ("_reg", "last_slot", "writes", "rmw_ops", "last_scan_len", "max_scan_len")

    def __init__(self, reg: ArcRegister) -> None:
        self._reg = reg
        self.last_slot = 0  # matches init: slot 0 holds the initial value
        self.writes = 0
        self.rmw_ops = 0
        self.last_scan_len = 0
        self.max_scan_len = 0

    def write(self, data) -> None:
        """Publish ``data`` as the new register value.

        Wait-free: the W1 search always succeeds within N+2 probes because
        at most N presence units are outstanding across retired slots.
        Executes exactly one RMW (the W2 exchange).
        """
        reg = self._reg
        size = len(data)
        if not 1 <= size <= reg.max_size:
            raise ConfigurationError(
                f"write of {size} bytes does not fit max_size={reg.max_size}"
            )
        if reg._debug:
            reg._check_outstanding_reads_bound()
        slot_idx = self.find_free_slot()  # W1
        slot = reg._slots[slot_idx]
        # One memcpy through a memoryview target: the chosen slot is
        # unpublished until W2, so nothing here needs to be interruptible,
        # and a plain bytearray slice assignment would copy non-bytearray
        # sources twice.
        reg._copy_in(slot.content, data)
        slot.size = size
        slot.r_start = 0
        slot.r_end.store(0)
        old = reg._current.exchange(slot_idx << INDEX_SHIFT)  # W2: publish
        self.rmw_ops += 1
        old_slot = old >> INDEX_SHIFT
        freed = old & COUNTER_MASK  # W3 mask
        if freed > reg.n_readers:
            raise InvariantViolation(
                f"frozen presence count {freed} exceeds N={reg.n_readers}"
            )
        if reg._debug and old_slot != self.last_slot:
            raise InvariantViolation(
                f"retired index {old_slot} drifted from writer state {self.last_slot}"
            )
        reg._slots[old_slot].r_start = freed  # W3: freeze retired slot
        self.last_slot = slot_idx
        self.writes += 1

    def find_free_slot(self) -> int:
        """Return a slot index != last_slot whose ``r_start == r_end``.

        Consults the reader-posted hint first (constant time when valid);
        otherwise clears it and scans from index 0 upward, returning the
        first free slot. The scan probes at most N+2 slots; exhausting it
        would falsify the free-slot accounting and aborts loudly.
        """
        reg = self._reg
        prop = reg._proposal
        if prop != NO_PROPOSAL:
            reg._proposal = NO_PROPOSAL  # consumed or rejected, either way
            if prop != self.last_slot:
                slot = reg._slots[prop]
                if slot.r_start == slot.r_end.load():
                    self.last_scan_len = 0
                    return prop
        scanned = 0
        last = self.last_slot
        for idx, slot in enumerate(reg._slots):
            scanned += 1
            if idx == last:
                continue
            if slot.r_start == slot.r_end.load():
                self.last_scan_len = scanned
                if scanned > self.max_scan_len:
                    self.max_scan_len = scanned
                return idx
        raise InvariantViolation(
            "no free slot among N+2: free-slot accounting falsified "
            "(implementation bug)"
        )
