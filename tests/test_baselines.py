"""Baseline registers: capacity, RMW profiles, sequential and stressed runs."""

import threading
from array import array

import pytest

from arcreg import (
    ArcRegister,
    BenchConfig,
    CapacityError,
    PetersonRegister,
    RegisterKind,
    RfRegister,
    RwlockRegister,
    decode_versioned,
    encode_versioned,
    run_bench,
)
from arcreg.baselines import _WRITER_BIT

ALL_BASELINES = [RfRegister, PetersonRegister, RwlockRegister]


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


def test_rf_at_the_58_reader_cap_constructs():
    reg = RfRegister(b"\x00" * 8, 58, 64)
    assert reg.content_buffer_count == 60


def test_rf_quiescent_reads_still_pay_rmw():
    reg = make(RfRegister, n_readers=1)
    reader = reg.new_reader()
    before = 0
    for i in range(1, 51):
        reader.read()
        read_rmw, _ = reg.rmw_counters()
        assert read_rmw > before  # at least one RMW on every read
        before = read_rmw


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
    assert bytes(buf[:size]) == snapshot  # announced field pins the buffer
    got, intact = decode_versioned(*reader.read())
    assert intact and got == 11


def test_rf_with_all_58_readers_parked_on_distinct_buffers():
    reg = RfRegister(encode_versioned(0, 64), 58, 64)
    writer = reg.writer()
    readers = [reg.new_reader() for _ in range(58)]
    for seq, reader in enumerate(readers, start=1):
        writer.write(encode_versioned(seq, 64))
        reader.read()  # binds the buffer just published
    # 58 parked readers + the current buffer still leave a free one.
    writer.write(encode_versioned(100, 64))
    writer.write(encode_versioned(101, 64))
    got, intact = decode_versioned(*readers[0].read())
    assert intact and got == 101


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


@pytest.mark.parametrize("cls", [ArcRegister, RfRegister, RwlockRegister])
def test_rejected_source_leaves_register_usable(cls):
    reg = make(cls, max_size=64)
    reader = reg.new_reader()
    writer = reg.writer()
    writer.write(encode_versioned(1, 64))
    assert _read_value(reader) == encode_versioned(1, 64)
    rejected = [list(range(16)), array("b", range(16)), memoryview(b"x" * 16).cast("c")]
    for data in rejected:
        with pytest.raises((TypeError, ValueError)):
            writer.write(data)
        if cls is RwlockRegister:
            # Checked before reading: a stuck writer bit would hang read().
            assert not reg._word.load() & _WRITER_BIT
        assert _read_value(reader) == encode_versioned(1, 64)
    writer.write(encode_versioned(2, 40))
    assert _read_value(reader) == encode_versioned(2, 40)


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


def test_peterson_cell_count_is_n_plus_1():
    reg = make(PetersonRegister, n_readers=4)
    assert reg.content_buffer_count == 5


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
        seed=3,
        switch_interval=0.001,
    )
    result = run_bench(cfg)
    assert result.reads > 0 and result.writes > 0
    assert result.violations == 0, (
        f"{algo.name}: {result.no_past} no-past, {result.inversions} inversions, "
        f"{result.torn_reads} torn"
    )
