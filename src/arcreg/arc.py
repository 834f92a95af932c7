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

The writer picks its slot (W1) without a search when it can: a slot retired
with a frozen count of zero had no reader bound to it, so no reader will
ever release it, and it is free from the moment W3 freezes it. The next
write takes that slot; only when the last retired slot had readers does W1
search, next fit, for a free one.

Each slot publishes its ``(content, size)`` pair as ``value``, and no read
allocates: a reader takes the pair of the slot it binds to, and the fast
path (R2) returns it again. This is exact: the writer reuses a slot only
once every presence unit on it is released, so the slot cannot change while
this reader's unit is parked on it, and the writer sets ``value`` before the
W2 exchange that lets any reader bind. The writer builds a new pair only
when a write's size differs from the slot's last one.

Step labels used throughout (``I1``, ``R1``..``R5``, ``W1``..``W3``) name
the individual algorithm steps and are referenced by the tests.

Concurrency contract: exactly one writer handle, at most N reader handles;
a handle is used by one thread at a time but may migrate between
operations. The W2 exchange must be a release, the R1 load a single untorn
acquire load, R3/R4 acquire-release RMWs, and the W3 freeze a release
store. :mod:`arcreg.atomics` is sequentially consistent under the GIL,
which satisfies all of that.

Liveness caveat: a reader that stops reading keeps one presence unit parked
on its last slot forever, permanently retiring that one slot. With N+2 slots
the writer still always finds a free slot. Once every reader has stopped,
each write takes the slot the previous one retired empty, with no search;
the first write after the readers stop may still probe up to N+1 slots.
"""

from __future__ import annotations

from .api import ARC_FIELD_BITS, ARC_MAX_READERS, ContentBuffer, InvariantViolation, Register
from .atomics import AtomicU64

INDEX_SHIFT = ARC_FIELD_BITS
COUNTER_MASK = (1 << ARC_FIELD_BITS) - 1


def pack(index: int, counter: int) -> int:
    """Pack a slot index (upper 32 bits) and presence counter (lower 32)."""
    return (index << INDEX_SHIFT) | counter


def unpack(raw: int) -> tuple[int, int]:
    """Split a packed synchronization word into (index, counter)."""
    return raw >> INDEX_SHIFT, raw & COUNTER_MASK


class _Slot(ContentBuffer):
    """One of the N+2 snapshot holders: a content buffer and its release count.

    ``r_start`` is writer-private: reset on reuse, frozen on retirement,
    and read only by the writer's free-slot search. ``r_end`` is an atomic
    RMW counter because several readers may release the same slot
    concurrently.
    """

    __slots__ = ("r_start", "r_end")

    def __init__(self, max_size: int) -> None:
        super().__init__(max_size)
        self.r_start = 0
        self.r_end = AtomicU64(0)


class ArcRegister(Register):
    """Wait-free (1,N) register with anonymous reader counting.

    Args:
        initial: initial register value (1..max_size bytes).
        n_readers: N, between 1 and 2**32 - 2.
        max_size: slot capacity in bytes; every slot is pre-allocated at
            this size and writes of any size up to it are accepted.
    """

    max_readers = ARC_MAX_READERS

    def __init__(self, initial, n_readers: int, max_size: int) -> None:
        super().__init__(n_readers, max_size)
        # I1 state: N+2 slots, all counters zero, slot 0 holds the initial
        # value, and current = pack(0, N) -- as if every reader already
        # started reading slot 0.
        self._slots = self._content_buffers(n_readers + 2, initial, _Slot)
        self._current = AtomicU64(pack(0, n_readers))  # I1

    def rmw_counters(self) -> tuple[int, int]:
        """Cumulative RMW counts on the (read, write) paths, read at the word.

        Every slot-transition read releases one unit (R3) and binds one
        (R4), and every bind adds one unit to ``current``'s counter: to the
        count of the slot then current. I1 put N units on slot 0, and each
        W3 freezes a retired slot's count, so the binds so far are the
        frozen counts plus the counter in ``current``, less N. Exact while
        no operation is in flight.
        """
        writer = self._writer
        if writer is None:
            return 0, 0  # no write yet: every read took the fast path
        binds = writer.frozen_units + (self._current.load() & COUNTER_MASK) - self.n_readers
        return 2 * binds, writer.writes  # one W2 exchange per write

    def _make_reader(self, reader_id: int) -> "ArcReader":
        return ArcReader(self, reader_id)

    def _make_writer(self) -> "ArcWriter":
        return ArcWriter(self)


class ArcReader:
    """Per-reader state: the slot this reader is bound to via one unit.

    ``_value`` is that slot's published ``(content, size)`` pair, taken when
    the reader binds: from slot 0 at construction (I1 parks every reader's
    first unit there) and at R5 from the slot R4 returned. R2 returns it as
    is; the slot cannot be reused while the unit is parked on it, and its
    ``value`` was set before the W2 that published it.
    """

    __slots__ = ("_reg", "reader_id", "last_index", "_value", "reads")

    def __init__(self, reg: ArcRegister, reader_id: int) -> None:
        self._reg = reg
        self.reader_id = reader_id
        self.last_index = 0  # init-time unit parked on slot 0
        self._value = reg._slots[0].value
        self.reads = 0

    def read(self):
        """Return ``(buffer, size)`` of the newest published value.

        Wait-free: no loops, no retries. The fast path (value unchanged
        since this reader's last read) executes zero RMW instructions and
        returns the pair kept since the bind; the slot-transition path
        executes exactly two (R3 increment, R4 add-and-fetch). The returned
        buffer stays stable until this handle's next ``read()``.
        """
        reg = self._reg
        self.reads += 1
        if reg._current.load() >> INDEX_SHIFT == self.last_index:  # R1
            return self._value  # R2: kept pair, no RMW
        reg._slots[self.last_index].r_end.add_and_fetch(1)  # R3: release
        tmp = reg._current.add_and_fetch(1)  # R4: bind to the newest slot
        self.last_index = index = tmp >> INDEX_SHIFT  # R5
        self._value = value = reg._slots[index].value
        return value

    def finish(self) -> None:
        """No-op; a parked presence unit is harmless (see module caveat)."""


class ArcWriter:
    """The single writer: selects a free slot, copies, publishes, freezes.

    ``empty_slot`` is the slot the last W3 froze at zero presence units, or
    None. ``frozen_units`` sums the counts every W3 froze; the register
    derives its read RMW count from it.
    """

    __slots__ = ("_reg", "last_slot", "empty_slot", "frozen_units", "writes")

    def __init__(self, reg: ArcRegister) -> None:
        self._reg = reg
        self.last_slot = 0  # matches init: slot 0 holds the initial value
        self.empty_slot = None  # I1 parks N units on slot 0
        self.frozen_units = 0
        self.writes = 0

    def write(self, data) -> None:
        """Publish ``data`` as the new register value.

        W1 takes the slot the last write retired empty. It needs no reset:
        its ``r_end`` was reset before the W2 that published it, no reader
        bound to it, so no R3 will ever touch it, and W3 froze its
        ``r_start`` at 0. Else W1 searches, next fit, and resets the slot it
        finds; the search always succeeds within N+1 probes because at most
        N presence units are outstanding across retired slots. Executes
        exactly one RMW (the W2 exchange).
        """
        reg = self._reg
        slots = reg._slots
        size = reg._fit(data)  # before any side effect
        slot_idx = self.empty_slot  # W1: the empty retired slot, already clean,
        if slot_idx is None:
            slot_idx = self.find_free_slot()  # else next fit, then reset
            slots[slot_idx].r_start = 0
            slots[slot_idx].r_end.store(0)
        slot = slots[slot_idx]
        # One memcpy through the slot's kept view (see ``Register``): the
        # chosen slot is unpublished until W2, so the copy need not be
        # interruptible.
        slot.view[:size] = data
        if slot.value[1] != size:
            slot.value = slot.content, size
        old = reg._current.exchange(slot_idx << INDEX_SHIFT)  # W2: publish
        old_slot = old >> INDEX_SHIFT
        freed = old & COUNTER_MASK  # W3 mask
        if freed > reg.n_readers:
            raise InvariantViolation(
                f"frozen presence count {freed} exceeds N={reg.n_readers}"
            )
        slots[old_slot].r_start = freed  # W3: freeze retired slot
        self.empty_slot = None if freed else old_slot
        self.frozen_units += freed
        self.last_slot = slot_idx
        self.writes += 1

    def find_free_slot(self) -> int:
        """Return a slot index != last_slot whose ``r_start == r_end``.

        W1's fallback, when the last write retired a slot that readers had
        bound to. Next fit: the search starts one past ``last_slot``, wraps
        around, and returns the first free slot. While the readers keep
        reading, a search usually probes one or two slots whatever N is. A
        reader that stops keeps its last slot busy, so with N readers parked
        on N different slots a search probes about (N+1)/2 slots on
        average; once they are all parked, though, writes retire their
        slots empty and search no more. It probes at most the N+1 other
        slots; exhausting them would falsify the free-slot accounting and
        aborts loudly.
        """
        slots = self._reg._slots
        last = self.last_slot
        n_slots = len(slots)
        idx = last
        for _ in range(n_slots - 1):
            idx += 1
            if idx == n_slots:
                idx = 0
            slot = slots[idx]
            if slot.r_start == slot.r_end.load():
                return idx
        raise InvariantViolation(
            f"no free slot: N={self._reg.n_readers}, last_slot={last}, and all "
            f"{n_slots - 1} other slots busy; free-slot accounting falsified "
            "(implementation bug)"
        )
