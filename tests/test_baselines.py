"""Baseline registers: capacity, RMW profiles, sequential and stressed runs."""

import random
import threading
import tracemalloc
from array import array

import pytest

from arcreg import (
    ArcRegister,
    BenchConfig,
    CapacityError,
    ConfigurationError,
    PetersonRegister,
    RegisterKind,
    RfRegister,
    RwlockRegister,
    check_history,
    decode_versioned,
    encode_versioned,
    run_bench,
)
from arcreg.api import MIN_VERSIONED_SIZE, RF_INDEX_BITS, RF_MAX_READERS, InvariantViolation
from arcreg.baselines import _WRITER_BIT
from support import (
    READER_SHAPES,
    Meter,
    OpCost,
    instrument,
    iter_schedule,
    reader_weights,
    rf_recount,
    rf_set_rule_buffer,
    run_schedule,
    schedule_history,
    schedule_plan,
)

ALL_BASELINES = [RfRegister, PetersonRegister, RwlockRegister]
ALL_REGISTERS = [ArcRegister, *ALL_BASELINES]


def make(cls, n_readers=2, max_size=4096):
    return cls(encode_versioned(0, max_size), n_readers, max_size)


@pytest.mark.parametrize("cls", ALL_BASELINES)
def test_sequential_write_then_read(cls):
    reg = make(cls)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))
    buf, size = reader.read()
    assert decode_versioned(buf, size) == (1, True)


@pytest.mark.parametrize("cls", ALL_BASELINES)
def test_thousand_alternating_rounds_monotone(cls):
    reg = make(cls, n_readers=1, max_size=256)
    reader = reg.new_reader()
    writer = reg.writer()
    for seq in range(1, 1001):
        writer.write(encode_versioned(seq, 256))
        got, intact = decode_versioned(*reader.read())
        # The blocking baseline holds the shared lock between reads; a
        # single-threaded alternation must drop it before the next write.
        reader.finish()
        assert intact
        assert got == seq


# -- readers-field specifics --------------------------------------------------


def test_rf_refuses_59_readers():
    with pytest.raises(CapacityError):
        RfRegister(b"\x00" * 8, 59, 64)


def test_rf_reader_cap_is_where_the_presence_bits_meet_the_index(monkeypatch):
    # Reader r's presence bit is bit r; the buffer index takes the top
    # RF_INDEX_BITS. At the cap a seeded schedule checks clean. One reader
    # more, and that reader's fetch-or sets the index's lowest bit, which the
    # next write finds as a published index it never wrote.
    assert RF_MAX_READERS == 64 - RF_INDEX_BITS == 58
    reg = RfRegister(encode_versioned(0, 64), 58, 64)
    costs = list(iter_schedule(reg, Meter(), ops=20_000, write_every=3))
    assert check_history(schedule_history(costs)).total_violations == 0
    monkeypatch.setattr(RfRegister, "max_readers", 59)
    reg = RfRegister(encode_versioned(0, 64), 59, 64)
    with pytest.raises(InvariantViolation, match="published index drifted"):
        list(iter_schedule(reg, Meter(), ops=20_000, write_every=3))


def test_rf_at_the_58_reader_cap_constructs():
    reg = RfRegister(b"\x00" * 8, 58, 64)
    assert reg.content_buffer_count == 60


def test_rf_quiescent_reads_still_pay_rmw():
    reg = make(RfRegister, n_readers=1)
    reader = reg.new_reader()
    writer = reg.writer()
    before = 0
    for i in range(1, 51):
        if i % 5 == 0:
            writer.write(encode_versioned(i, 4096))  # the next read moves on
        buf, size = reader.read()
        read_rmw, _ = reg.rmw_counters()
        # Exactly one fetch-or per read, quiescent or transition alike.
        assert read_rmw == before + 1
        before = read_rmw
    assert decode_versioned(buf, size) == (50, True)


def test_rf_one_publication_rmw_per_write():
    reg = make(RfRegister)
    writer = reg.writer()
    for seq in range(1, 21):
        writer.write(encode_versioned(seq, 4096))
    _, write_rmw = reg.rmw_counters()
    assert write_rmw == 20


def test_rf_bound_view_stays_stable_while_writer_advances():
    reg = make(RfRegister, n_readers=1, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    buf, size = reader.read()
    snapshot = bytes(buf[:size])
    for seq in range(2, 12):
        writer.write(encode_versioned(seq, 64))
    assert bytes(buf[:size]) == snapshot  # the writer's trace pins the buffer
    got, intact = decode_versioned(*reader.read())
    assert intact and got == 11


def test_rf_with_all_58_readers_parked_on_distinct_buffers():
    reg = RfRegister(encode_versioned(0, 64), 58, 64)
    writer = reg.writer()
    readers = [reg.new_reader() for _ in range(58)]
    for seq, reader in enumerate(readers, start=1):
        writer.write(encode_versioned(seq, 64))
        reader.read()  # holds the buffer just published
    # 58 parked readers + the current buffer still leave a free one.
    writer.write(encode_versioned(100, 64))
    writer.write(encode_versioned(101, 64))
    got, intact = decode_versioned(*readers[0].read())
    assert intact and got == 101


@pytest.mark.parametrize("shape", READER_SHAPES)
@pytest.mark.parametrize("n", [1, 2, 16, 58])
def test_rf_counts_pick_the_set_rules_buffer(n, shape):
    # The writer's counts must pick, write for write, the buffer the rule
    # "lowest index neither current nor traced" picks, and stay equal to a
    # recount from the trace. Writes alternate between the smallest
    # versioned size and max_size, so a buffer's pair changes size on reuse.
    max_size = 64
    reg = RfRegister(encode_versioned(0, max_size), n, max_size)
    meter = instrument(reg)
    readers = [reg.new_reader() for _ in range(n)]
    writer = reg.writer()
    n_buffers = n + 2
    assert writer._refs == rf_recount(writer._trace, writer._current, n_buffers)
    sizes = {0: max_size}
    seen = [0] * n
    costs = []
    plan = schedule_plan(random.Random(20 + n), reader_weights(shape, n), 3_000, 3)
    for i in plan:
        rmw = meter.rmw
        if i is None:
            expected = rf_set_rule_buffer(writer._trace, writer._current, n_buffers)
            seq = writer.writes + 1
            sizes[seq] = MIN_VERSIONED_SIZE if seq % 2 else max_size
            writer.write(encode_versioned(seq, sizes[seq]))
            assert writer._current == expected
            assert writer._refs == rf_recount(writer._trace, writer._current, n_buffers)
            costs.append(OpCost("write", meter.rmw - rmw, 0, True, seq))
        else:
            buf, size = readers[i].read()
            seq, intact = decode_versioned(buf, size)
            assert intact and size == sizes[seq]
            costs.append(OpCost("read", meter.rmw - rmw, 0, seq != seen[i], seq))
            seen[i] = seq
    assert writer.writes > 900
    assert {c.rmw for c in costs} == {1}
    assert check_history(schedule_history(costs)).total_violations == 0


def test_rf_exhaustion_raises_with_a_witness_and_touches_nothing():
    reg = make(RfRegister, n_readers=3, max_size=64)
    readers = [reg.new_reader() for _ in range(3)]
    writer = reg.writer()
    for seq in range(1, 4):
        writer.write(encode_versioned(seq, 64))
        readers[seq - 1].read()
    writer.write(encode_versioned(4, 64))

    def state():
        return (reg._status.load(), list(writer._trace), writer.writes,
                [bytes(buf.content) for buf in reg._buffers])

    before = state()
    writer._refs[:] = [1] * len(writer._refs)  # every buffer held: falsified
    message = rf"no free buffer: N=3, current={writer._current}, and all 5 buffers held"
    with pytest.raises(InvariantViolation, match=message):
        writer.write(encode_versioned(5, 64))
    assert state() == before


# -- multi-copy construction specifics ----------------------------------------


def test_peterson_uses_no_rmw_at_all():
    reg = make(PetersonRegister)
    reader = reg.new_reader()
    writer = reg.writer()
    for seq in range(1, 30):
        writer.write(encode_versioned(seq, 4096))
        reader.read()
    assert reg.rmw_counters() == (0, 0)


def test_peterson_write_stores_a_copy():
    reg = make(PetersonRegister, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    data = bytearray(encode_versioned(1, 64))
    writer.write(data)
    data[:] = encode_versioned(9, 64)  # mutate the caller's buffer
    got, intact = decode_versioned(*reader.read())
    assert intact and got == 1


def _read_value(reader):
    buf, size = reader.read()
    value = bytes(buf[:size])
    # Drop the view before the next write: the spinlock register's reader
    # holds its lock from one read to the next.
    reader.finish()
    return value


def _arc_state(reg, writer):
    """Everything an ARC write can touch; None for the other registers."""
    if not isinstance(reg, ArcRegister):
        return None
    slots = [(s.r_start, s.r_end.load(), s.value[1]) for s in reg._slots]
    return writer.last_slot, writer.empty_slot, writer.frozen_units, reg._current.load(), slots


@pytest.mark.parametrize("cls", [ArcRegister, RfRegister, RwlockRegister])
def test_slot_registers_copy_every_source_type(cls):
    reg = make(cls, max_size=256)
    reader = reg.new_reader()
    writer = reg.writer()
    assert _read_value(reader) == encode_versioned(0, 256)
    larger = bytearray(encode_versioned(7, 300))
    sources = [
        encode_versioned(1, 256),
        bytearray(encode_versioned(2, 200)),
        memoryview(encode_versioned(3, 136)),
        memoryview(larger)[8:99],  # offset view with a partial trailing word
        b"\xab" * 13,
    ]
    for data in sources:
        expected = bytes(data)
        writer.write(data)
        got = _read_value(reader)
        assert got == expected  # the new, shorter size is reported
    caller = bytearray(encode_versioned(4, 256))
    writer.write(caller)
    caller[:] = encode_versioned(9, 256)  # mutate the caller's buffer
    assert _read_value(reader) == encode_versioned(4, 256)


@pytest.mark.parametrize("cls", ALL_REGISTERS)
def test_a_write_allocates_no_value_sized_temporary(cls):
    # Assigning a bytes source to a bytearray slice copies it into a
    # temporary bytearray first; a write through a memoryview reads the
    # source directly. Peterson keeps one fresh buffer per value.
    size = 128 * 1024
    reg = make(cls, max_size=size)
    writer = reg.writer()
    writer.write(encode_versioned(1, size))  # nothing left to set up lazily
    data = encode_versioned(2, size)
    tracemalloc.start()
    try:
        writer.write(data)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if cls is PetersonRegister:
        assert size <= current and peak < size * 3 // 2, (current, peak)
    else:
        assert peak < size // 2, peak


@pytest.mark.parametrize("cls", [ArcRegister, RfRegister, PetersonRegister])
def test_seeded_schedule_keeps_every_held_view_stable(cls):
    # The spinlock register is left out: a held view blocks its writer.
    rng = random.Random(5)
    reg = make(cls, n_readers=3, max_size=64)
    readers = [reg.new_reader() for _ in range(3)]
    writer = reg.writer()
    held = [None] * 3  # (buffer, size, snapshot) per reader
    seq = 0
    for _ in range(3000):
        if rng.random() < 0.4:
            seq += 1
            writer.write(encode_versioned(seq, rng.randrange(8, 65)))
        else:
            r = rng.randrange(3)
            buf, size = readers[r].read()
            assert decode_versioned(buf, size) == (seq, True)
            held[r] = (buf, size, bytes(buf[:size]))
        for view in held:
            if view is not None:
                buf, size, snapshot = view
                assert bytes(buf[:size]) == snapshot
    assert seq > 1000 and all(r.reads > 500 for r in readers)


@pytest.mark.parametrize("cls", ALL_REGISTERS)
def test_rejected_source_leaves_register_usable(cls):
    reg = make(cls, n_readers=1, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    assert _read_value(reader) == encode_versioned(1, 64)
    arc_state = _arc_state(reg, writer)
    rejected = [
        list(range(16)),
        array("b", range(16)),
        memoryview(b"x" * 16).cast("c"),
        memoryview(b"x" * 16).cast("B", [2, 8]),
        array("q", range(60)),  # 60 items fit max_size=64; its 480 bytes do not
    ]
    for data in rejected:
        counters, writes = reg.rmw_counters(), writer.writes
        with pytest.raises(TypeError):
            writer.write(data)
        # Refused before any lock, slot or publication is touched.
        assert reg.rmw_counters() == counters
        assert writer.writes == writes
        assert _arc_state(reg, writer) == arc_state
        if cls is RwlockRegister:
            # Checked before reading: a stuck writer bit would hang read().
            assert not reg._word.load() & _WRITER_BIT
        assert _read_value(reader) == encode_versioned(1, 64)
    writer.write(encode_versioned(2, 40))
    assert _read_value(reader) == encode_versioned(2, 40)


@pytest.mark.parametrize("cls", ALL_REGISTERS)
def test_oversized_initial_value_rejected(cls):
    for size in (0, 65):
        with pytest.raises(ConfigurationError):
            cls(b"\x01" * size, 1, 64)
    reg = cls(b"\x01" * 64, 1, 64)  # exactly max_size fits
    assert _read_value(reg.new_reader()) == b"\x01" * 64


@pytest.mark.parametrize("cls", ALL_REGISTERS)
def test_oversized_write_rejected(cls):
    reg = make(cls, n_readers=1, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))  # exactly max_size fits
    assert _read_value(reader) == encode_versioned(1, 64)
    counters, writes = reg.rmw_counters(), writer.writes
    arc_state = _arc_state(reg, writer)
    for size in (0, 65):
        with pytest.raises(ConfigurationError):
            writer.write(b"\x02" * size)
        # Checked before any lock, slot or publication is touched.
        assert reg.rmw_counters() == counters
        assert writer.writes == writes
        assert _arc_state(reg, writer) == arc_state
    assert _read_value(reader) == encode_versioned(1, 64)


def test_peterson_write_back_propagates_between_readers():
    reg = make(PetersonRegister, n_readers=2, max_size=64)
    r1, r2 = reg.new_reader(), reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    assert decode_versioned(*r1.read()) == (1, True)
    # r1's report cell now carries seq 1; r2's collect must see it even if
    # the writer cell were the only other source.
    assert reg._rcells[0].snap[0] == 1
    assert decode_versioned(*r2.read()) == (1, True)


def test_peterson_counts_a_buffer_per_write_and_per_read():
    reg = make(PetersonRegister, n_readers=4)
    assert reg.content_buffer_count == 1  # the initial value
    reader, writer = reg.new_reader(), reg.writer()
    writer.write(encode_versioned(1, 4096))
    assert reg.content_buffer_count == 2
    reader.read()  # collects, then reports a fresh copy
    assert reg.content_buffer_count == 3
    with pytest.raises(ConfigurationError):
        writer.write(b"")  # refused before anything is allocated
    assert reg.content_buffer_count == 3


# -- rwlock specifics ----------------------------------------------------------


def test_rwlock_single_buffer():
    reg = make(RwlockRegister, n_readers=4)
    assert reg.content_buffer_count == 1


def test_rwlock_reader_blocks_writer_until_finish():
    reg = make(RwlockRegister, n_readers=1, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    reader.read()  # holds the shared lock until the next read/finish
    done = threading.Event()

    def write_side():
        writer.write(encode_versioned(1, 64))
        done.set()

    t = threading.Thread(target=write_side, daemon=True)
    t.start()
    assert not done.wait(0.15)  # writer is spinning on the parked reader
    reader.finish()
    assert done.wait(2.0)
    t.join()
    got, intact = decode_versioned(*reader.read())
    reader.finish()
    assert intact and got == 1


def test_rwlock_uses_rmw_instructions():
    reg = make(RwlockRegister, n_readers=1)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 4096))
    reader.read()
    reader.finish()
    read_rmw, write_rmw = reg.rmw_counters()
    assert read_rmw >= 1
    assert write_rmw >= 2


def test_rwlock_rmw_counts_match_the_word():
    reg = make(RwlockRegister, n_readers=4, max_size=64)
    meter = instrument(reg)
    costs = run_schedule(reg, meter, ops=2_000, write_every=3, seed=5)
    writes = [c.rmw for c in costs if c.kind == "write"]
    assert len(writes) > 100 and set(writes) == {2}  # one fetch-or, one fetch-and
    assert sum(writes) == reg.rmw_counters()[1]
    assert meter.rmw == sum(reg.rmw_counters())  # the readers' tally too


# -- stressed history checks ---------------------------------------------------


@pytest.mark.parametrize("algo", [RegisterKind.RF, RegisterKind.PETERSON, RegisterKind.RWLOCK])
def test_baseline_stress_has_zero_violations(algo):
    cfg = BenchConfig(
        algo=algo,
        readers=8,
        size=4096,
        duration=1.0,
        mode="work",
        verify=True,
        switch_interval=0.001,
    )
    result = run_bench(cfg)
    assert result.reads > 0 and result.writes > 0
    assert result.violations == 0, (
        f"{algo.name}: {result.no_past} no-past, {result.inversions} inversions, "
        f"{result.torn_reads} torn"
    )
