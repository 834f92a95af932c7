"""Unit semantics of the anonymous-counting register, hand-stepped.

The expected values in these tests were derived by executing the read and
write step sequences (R1..R5, W1..W3, I1) by hand from the initial state.
"""

import pytest

from arcreg import (
    ARC_MAX_READERS,
    ArcRegister,
    CapacityError,
    InvariantViolation,
    arc,
    check_history,
    decode_versioned,
    encode_versioned,
    pack,
    unpack,
)
from arcreg.api import ARC_FIELD_BITS
from support import (
    CheckedArcRegister,
    Meter,
    NarrowWord,
    instrument,
    iter_schedule,
    run_schedule,
    schedule_history,
)


def make(n_readers=2, max_size=4096, initial_seq=0):
    return ArcRegister(encode_versioned(initial_seq, max_size), n_readers, max_size)


def busy(reg, *indices):
    for idx in indices:
        reg._slots[idx].r_start = 2  # frozen with an outstanding unit
        reg._slots[idx].r_end.store(1)


# -- packed word ------------------------------------------------------------


def test_pack_index_zero_contributes_nothing():
    assert pack(0, 4) == 4


def test_unpack_splits_fields():
    assert unpack((3 << 32) | 7) == (3, 7)


def test_pack_counter_zero_is_pure_shift():
    assert pack(5, 0) == 5 << 32


def test_pack_unpack_round_trip():
    for idx, ctr in [(0, 0), (1, 2**32 - 1), (2**32 - 1, 0), (123, 456)]:
        assert unpack(pack(idx, ctr)) == (idx, ctr)


# -- initialization ---------------------------------------------------------


def test_init_state_two_readers():
    reg = make(n_readers=2)
    assert len(reg._slots) == 4
    assert reg._current.load() == 2  # I1: index 0, counter N
    assert all(s.r_start == 0 and s.r_end.load() == 0 for s in reg._slots)
    assert reg._slots[0].size == 4096


def test_init_state_smallest_legal_n():
    reg = ArcRegister(encode_versioned(0, 64), 1, 64)
    assert len(reg._slots) == 3
    assert reg._current.load() == 1


def test_fresh_reader_reads_initial_value_with_zero_rmw():
    reg = make()
    reader = reg.new_reader()
    buf, size = reader.read()
    assert decode_versioned(buf, size) == (0, True)
    assert reg.rmw_counters() == (0, 0)  # R2 path only


def test_reader_count_capacity():
    reg = make(n_readers=2)
    reg.new_reader()
    reg.new_reader()
    with pytest.raises(CapacityError):
        reg.new_reader()


def test_single_writer_handle():
    reg = make()
    reg.writer()
    with pytest.raises(CapacityError):
        reg.writer()


@pytest.mark.parametrize("n", [0, 2**32 - 1])
def test_reader_count_bounds(n):
    with pytest.raises(CapacityError):
        ArcRegister(b"\x00" * 8, n, 64)


def _stale_reads(n_readers: int, k: int, monkeypatch) -> int:
    """Stale reads in a seeded schedule of ARC with k-bit fields in a 2k-bit word."""
    monkeypatch.setattr(arc, "INDEX_SHIFT", k)
    monkeypatch.setattr(arc, "COUNTER_MASK", (1 << k) - 1)
    reg = ArcRegister(encode_versioned(0, 64), n_readers, 64)
    reg._current = NarrowWord(reg._current.load(), 2 * k)
    costs = []
    try:
        costs.extend(iter_schedule(reg, Meter(), ops=20_000, write_every=3))
    except InvariantViolation:
        assert n_readers > 2**k - 2  # W1 may find no free slot once the index wrapped
    report = check_history(schedule_history(costs))
    assert all(v.flavor == "stale-read" for v in report.no_past)
    return len(report.no_past)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reader_cap_is_where_the_index_field_overflows(k, monkeypatch):
    # N readers use N+2 slots, so the k-bit index field must hold N+1: the
    # cap is 2**k - 2. One reader more, and the write that picks slot 2**k
    # publishes slot 0, whose old value the next transition read returns.
    assert ARC_MAX_READERS == 2**ARC_FIELD_BITS - 2
    assert _stale_reads(2**k - 2, k, monkeypatch) == 0
    assert _stale_reads(2**k - 1, k, monkeypatch) > 0


def test_construction_far_above_identified_reader_limits():
    reg = ArcRegister(b"\x01" * 8, 128, 8)
    assert len(reg._slots) == 130
    assert unpack(reg._current.load()) == (0, 128)


# -- read paths -------------------------------------------------------------


def test_repeat_reads_hit_cache_and_leave_counter_alone():
    reg = make()
    reader = reg.new_reader()
    before = reg._current.load()
    a = reader.read()
    b = reader.read()
    assert a == b
    assert reg._current.load() == before
    assert reg.rmw_counters() == (0, 0)


def test_fast_path_returns_the_kept_pair_with_zero_rmw():
    reg = make()
    meter = instrument(reg)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))
    first = reader.read()  # slot transition: binds and builds the pair
    before = meter.rmw
    second = reader.read()
    assert second is first  # R2 returns the pair kept at R5
    assert meter.rmw == before


def test_transition_read_keeps_the_new_slots_size_and_buffer():
    reg = make(max_size=4096)
    reader = reg.new_reader()
    writer = reg.writer()
    for size in (100, 200):
        writer.write(encode_versioned(size, size))
        slot = reg._slots[writer.last_slot]
        buf, got = reader.read()
        assert got == size
        assert buf is slot.content
        assert decode_versioned(buf, got) == (size, True)
        assert reader.read() == (slot.content, size)  # the kept pair


def test_reader_made_after_writes_leaves_slot_0s_pair():
    # I1 parks every reader's first unit on slot 0, so a reader made after
    # three writes starts bound there, with slot 0's pair. Its first read
    # must take the transition path and return the newest value.
    reg = make(n_readers=2)
    writer = reg.writer()
    for seq in (1, 2, 3):
        writer.write(encode_versioned(seq, 4096))
    reader = reg.new_reader()
    assert reader.last_index == 0
    buf, size = reader.read()
    assert buf is reg._slots[writer.last_slot].content
    assert decode_versioned(buf, size) == (3, True)
    assert reg._slots[0].r_end.load() == 1  # R3 released the init slot


def test_transition_read_releases_old_slot_and_binds_new():
    reg = make(n_readers=2)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))
    published = unpack(reg._current.load())[0]
    buf, size = reader.read()
    assert decode_versioned(buf, size) == (1, True)
    assert reg._slots[0].r_end.load() == 1  # R3 released the init slot
    idx, counter = unpack(reg._current.load())
    assert (idx, counter) == (published, 1)  # R4 bound one unit
    assert reader.last_index == published  # R5
    assert reg.rmw_counters() == (2, 1)


def test_write_landing_between_r1_and_r4_is_adopted():
    # Interleaving where the publish lands after the reader's index load
    # but before its bind: the bind returns the newest index, so the read
    # returns the just-published value and leaves its unit there.
    reg = make(n_readers=2)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))  # reader still bound to slot 0

    class InterposingWord:
        def __init__(self, inner, hook):
            self.inner, self.hook, self.fired = inner, hook, False

        def load(self):
            return self.inner.load()

        def exchange(self, value):
            return self.inner.exchange(value)

        def add_and_fetch(self, delta):
            if not self.fired:
                self.fired = True
                self.hook()
            return self.inner.add_and_fetch(delta)

    word = reg._current
    reg._current = InterposingWord(word, lambda: writer.write(encode_versioned(2, 4096)))
    try:
        buf, size = reader.read()
    finally:
        reg._current = word

    assert decode_versioned(buf, size) == (2, True)
    assert reader.last_index == writer.last_slot
    idx, counter = unpack(reg._current.load())
    assert (idx, counter) == (writer.last_slot, 1)
    assert reg._slots[0].r_end.load() == 1


def test_release_between_w2_and_w3_leaves_slot_busy_until_freeze():
    # Interleaving where a reader's R3 on the slot being retired lands after
    # the publish (W2) but before the freeze (W3): the slot's r_start is
    # still 0 against an r_end of 1, so it reads as busy. W3 freezes it at
    # the exchanged-out count, which makes it free, and a later write's
    # search wraps around to it.
    reg = make(n_readers=1)
    reader = reg.new_reader()  # parked on slot 0, the one being retired
    writer = reg.writer()

    class InterposingWord:
        def __init__(self, inner, hook):
            self.inner, self.hook, self.fired = inner, hook, False

        def load(self):
            return self.inner.load()

        def add_and_fetch(self, delta):
            return self.inner.add_and_fetch(delta)

        def exchange(self, value):
            old = self.inner.exchange(value)
            if not self.fired:
                self.fired = True
                self.hook()
            return old

    seen = []
    released = reg._slots[0]

    def read_in_gap():
        assert released.r_start == 0  # W3 has not frozen the slot yet
        seen.append(decode_versioned(*reader.read()))
        seen.append((released.r_start, released.r_end.load()))

    word = reg._current
    reg._current = InterposingWord(word, read_in_gap)
    try:
        writer.write(encode_versioned(1, 4096))
    finally:
        reg._current = word

    assert seen == [(1, True), (0, 1)]  # read the new value; slot 0 busy
    assert (released.r_start, released.r_end.load()) == (1, 1)  # free after W3
    writer.write(encode_versioned(2, 4096))
    assert writer.last_slot == 2  # next fit: one past slot 1
    writer.write(encode_versioned(3, 4096))
    assert writer.last_slot == 0  # wrapped around to the released slot
    assert decode_versioned(*reader.read()) == (3, True)


def test_reads_are_bounded_to_two_rmw():
    reg = make(n_readers=2)
    meter = instrument(reg)
    reader = reg.new_reader()
    writer = reg.writer()
    for seq in range(1, 20):
        writer.write(encode_versioned(seq, 4096))
        for expected in (2, 0):  # a slot transition, then the cached path
            before = meter.rmw
            reader.read()
            assert meter.rmw - before == expected


def test_bound_view_stays_stable_while_writer_advances():
    reg = make(n_readers=1, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    buf, size = reader.read()
    snapshot = bytes(buf[:size])
    for seq in range(2, 12):
        writer.write(encode_versioned(seq, 64))
    assert bytes(buf[:size]) == snapshot  # presence unit pins the slot
    buf2, size2 = reader.read()
    seq, intact = decode_versioned(buf2, size2)
    assert intact and seq == 11


# -- write paths ------------------------------------------------------------


def test_first_write_selects_fresh_slot_and_freezes_init_counter():
    reg = make(n_readers=2)
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))
    assert writer.last_slot == 1  # next fit: one past last_slot 0
    # The exchange returned pack(0, N): the init slot froze at N.
    assert reg._slots[0].r_start == 2
    idx, counter = unpack(reg._current.load())
    assert (idx, counter) == (1, 0)


def test_write_never_reuses_last_slot_even_if_free():
    reg = make(n_readers=2)
    meter = instrument(reg)
    writer = reg.writer()
    writer.last_slot = 1
    reg._slots[1].r_start = 5
    reg._slots[1].r_end.store(5)
    busy(reg, 2, 3)
    assert writer.find_free_slot() == 0  # probes 2, 3, 0; never 1
    assert meter.r_end.loads == 3


def test_scan_length_never_exceeds_slot_count():
    reg = make(n_readers=2)
    meter = instrument(reg)
    reader = reg.new_reader()
    writer = reg.writer()
    for seq in range(1, 50):
        before = meter.r_end.loads
        writer.write(encode_versioned(seq, 4096))
        assert 1 <= meter.r_end.loads - before <= 2 + 1  # the N+1 other slots
        reader.read()


def test_sequential_seq_progression_visible_to_reader():
    reg = make(n_readers=1, max_size=256)
    reader = reg.new_reader()
    writer = reg.writer()
    for seq in range(1, 1001):
        writer.write(encode_versioned(seq, 256))
        got, intact = decode_versioned(*reader.read())
        assert intact
        assert got == seq


# -- free-slot search (W1, next fit) -----------------------------------------


def test_scan_starts_one_past_last_slot_and_wraps():
    reg = make(n_readers=2)
    meter = instrument(reg)
    writer = reg.writer()
    assert writer.find_free_slot() == 1  # slot 0 is last_slot at init
    writer.last_slot = 2
    assert writer.find_free_slot() == 3  # slots 0 and 1 are free too
    writer.last_slot = 3  # the highest index
    assert writer.find_free_slot() == 0
    assert meter.r_end.loads == 3  # one probe per search


def test_scan_skips_busy_slot():
    reg = make(n_readers=2)
    meter = instrument(reg)
    writer = reg.writer()
    busy(reg, 1)
    assert writer.find_free_slot() == 2
    assert meter.r_end.loads == 2


def test_exhausted_search_raises_with_witness():
    reg = make(n_readers=2)
    writer = reg.writer()
    writer.last_slot = 1  # free, but never a candidate
    busy(reg, 0, 2, 3)
    with pytest.raises(InvariantViolation) as excinfo:
        writer.find_free_slot()
    message = str(excinfo.value)
    assert "N=2" in message
    assert "last_slot=1" in message
    assert "all 3 other slots busy" in message


def test_last_release_leaves_slot_free():
    reg = make(n_readers=2)
    r1, r2 = reg.new_reader(), reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))  # freezes slot 0 at r_start=2
    released = reg._slots[0]
    r1.read()
    assert (released.r_start, released.r_end.load()) == (2, 1)  # busy
    r2.read()
    assert (released.r_start, released.r_end.load()) == (2, 2)  # free
    writer.write(encode_versioned(2, 4096))  # slot 2
    writer.write(encode_versioned(3, 4096))  # slot 3
    writer.write(encode_versioned(4, 4096))  # wraps to the freed slot 0
    assert writer.last_slot == 0
    assert decode_versioned(*r1.read()) == (4, True)


def mean_probes_per_write(n_readers, write_every):
    """Mean W1 probes per write over ``run_schedule``'s seeded schedule.

    A probe is a load of some slot's ``r_end``; W1 is the only step that
    loads one.
    """
    reg = ArcRegister(encode_versioned(0, 64), n_readers, 64)
    costs = run_schedule(reg, instrument(reg), write_every=write_every)
    writes = [c.probes for c in costs if c.kind == "write"]
    assert len(writes) > len(costs) // (2 * write_every)
    return sum(writes) / len(writes)


@pytest.mark.parametrize("write_every", [10, 2])
def test_write_probes_stay_constant_at_n_1024(write_every):
    # Amortized constant-time writes. The search this replaced (a
    # reader-posted hint, then a scan from slot 0) averaged 75 probes per
    # write on this schedule with writes at 1/10, and 243 at 1/2; next fit
    # averages 1.0 and 2.1.
    assert mean_probes_per_write(1024, write_every) <= 4


# -- counters ---------------------------------------------------------------


def test_rmw_counter_examples():
    reg = make(n_readers=2)
    reader = reg.new_reader()
    writer = reg.writer()
    reader.read()
    assert reg.rmw_counters() == (0, 0)
    writer.write(encode_versioned(1, 4096))
    assert reg.rmw_counters() == (0, 1)  # exactly the publish exchange
    reader.read()
    assert reg.rmw_counters() == (2, 1)  # release + bind


def test_content_buffer_accounting_is_exactly_n_plus_2():
    for n in (1, 2, 31):
        reg = make(n_readers=n, max_size=64)
        assert reg.content_buffer_count == n + 2


# -- accounting checks of the stress matrix (tests/support.py) ---------------


def checked(n_readers=2):
    return CheckedArcRegister(encode_versioned(0, 64), n_readers, 64)


def test_checked_write_catches_corrupted_r_start():
    reg = checked()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    assert reg.checks == 2  # the outstanding-reads sum, then the W2 index
    reg._slots[3].r_start = 9  # r_end is 0: nine units that no reader holds
    with pytest.raises(InvariantViolation, match="outstanding-reads accounting 11 exceeds N=2"):
        writer.write(encode_versioned(2, 64))


def test_checked_bind_catches_counter_past_n():
    reg = checked()
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    reg._current.store(pack(writer.last_slot, 2))  # as if N units were bound
    with pytest.raises(InvariantViolation, match="presence counter 3 exceeds N=2"):
        reader.read()  # R4 adds the third unit


def test_checked_publish_catches_drifted_last_slot():
    reg = checked()
    writer = reg.writer()
    writer.last_slot = 2  # slot 0 is current
    with pytest.raises(InvariantViolation, match="retired index 0 drifted from writer state 2"):
        writer.write(encode_versioned(1, 64))
