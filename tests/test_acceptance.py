"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The stress matrix (readers x sizes, >= 2e6 verified operations per
configuration) runs once, with ARC's accounting checks armed, as a session
fixture and feeds criteria 1 and 4. Criterion 3 measures RMWs and W1 probes
at the words over seeded single-thread schedules, one per reader shape
(uniform, skewed, half parked, all parked), and checks each one's history.
"""

import os
import random
import statistics
import time
import warnings

import pytest

from arcreg import (
    ArcRegister,
    BenchConfig,
    CapacityError,
    History,
    PetersonRegister,
    RegisterKind,
    RfRegister,
    check_history,
    encode_versioned,
    run_bench,
)
from support import (
    READER_SHAPES,
    BrokenArcRegister,
    CheckedArcRegister,
    Meter,
    instrument,
    linearizable_by_search,
    random_small_history,
    run_schedule,
    schedule_history,
)

STRESS_READERS = (2, 8, 16, 31)
STRESS_SIZES = (4096, 32768, 131072)
MIN_OPS = 2_000_000
PER_CONFIG_BUDGET_S = 120.0


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")


def _checked_run(cfg):
    """Run ``cfg`` on a CheckedArcRegister; return the result and its check count."""
    made = []

    def factory(cfg):
        made.append(CheckedArcRegister(encode_versioned(0, cfg.size), cfg.readers, cfg.size))
        return made[0]

    return run_bench(cfg, register_factory=factory), made[0].checks


@pytest.fixture(scope="session")
def stress_matrix():
    """12 verified work-mode runs of the checked primary register, >=2e6 ops each."""
    outcomes = []
    for readers in STRESS_READERS:
        for size in STRESS_SIZES:
            cfg = BenchConfig(
                algo=RegisterKind.ARC,
                readers=readers,
                size=size,
                duration=2.0,
                mode="work",
                verify=True,
                min_ops=MIN_OPS,
                switch_interval=0.001,
            )
            t0 = time.monotonic()
            result, checks = _checked_run(cfg)
            outcomes.append((cfg, result, time.monotonic() - t0, checks))
    return outcomes


def test_criterion_1_atomicity_suite(stress_matrix):
    ok = True
    for cfg, result, wall, _ in stress_matrix:
        line_ok = (
            result.total_ops >= MIN_OPS
            and result.no_past == 0
            and result.inversions == 0
            and result.torn_reads == 0
            and wall <= PER_CONFIG_BUDGET_S
        )
        ok = ok and line_ok
        print(
            f"  [{'ok' if line_ok else 'FAIL'}] readers={cfg.readers:<3} "
            f"size={cfg.size:<6} ops={result.total_ops} "
            f"no_past={result.no_past} inversions={result.inversions} "
            f"torn={result.torn_reads} wall={wall:.1f}s"
        )
    _verdict(1, ok, f"{len(stress_matrix)} configurations, >= {MIN_OPS} verified ops each")
    assert ok


def test_criterion_2_checker_oracle_agreement():
    rng = random.Random(42)
    agree = 0
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        records = random_small_history(rng)
        checker = check_history(History.from_records(records)).atomic
        oracle = linearizable_by_search(records)
        verdicts[oracle] += 1
        agree += checker == oracle
    _verdict(
        2,
        agree == 200,
        f"{agree}/200 agreements "
        f"({verdicts[True]} linearizable, {verdicts[False]} not)",
    )
    assert agree == 200
    assert min(verdicts.values()) >= 20  # both verdict classes exercised


SWEEP_READERS = (2, 8, 16, 31, 128, 1024)
SWEEP_WRITE_EVERY = (10, 2)


def _rmw_by_kind(costs):
    reads = [c.rmw for c in costs if c.kind == "read"]
    writes = [c.rmw for c in costs if c.kind == "write"]
    return reads, writes


def test_criterion_3_wait_freedom_bounds():
    # One thread drives each register, so the change in the word counts
    # across an operation is exactly that operation's RMW and probe count.
    ok = True
    for n in SWEEP_READERS:
        for shape in READER_SHAPES:
            # Mean W1 probes per write allowed. A write after a write that
            # no reader saw takes the slot that one retired empty, so once
            # every reader is parked, writes hardly search at all.
            cap = 1 if shape == "parked" else 4
            figures = []
            # Once every reader is parked, every op is a write.
            for write_every in (1,) if shape == "parked" else SWEEP_WRITE_EVERY:
                reg = ArcRegister(encode_versioned(0, 64), n, 64)
                costs = run_schedule(reg, instrument(reg), write_every=write_every,
                                     readers=shape)
                reads, writes = _rmw_by_kind(costs)
                probes = [c.probes for c in costs if c.kind == "write"]
                mean = sum(probes) / len(probes)
                ok_here = (
                    max(reads) <= 2
                    and not any(c.rmw for c in costs if c.kind == "read" and not c.moved)
                    and set(writes) == {1}
                    and max(probes) <= n + 1
                    and mean <= cap
                    and reg.rmw_counters() == (sum(reads), sum(writes))
                    and check_history(schedule_history(costs)).atomic
                )
                ok = ok and ok_here
                figures.append(
                    f"1/{write_every}: read RMW max {max(reads)}, write RMW {sorted(set(writes))}, "
                    f"probes max {max(probes)} mean {mean:.2f}"
                    + ("" if ok_here else " FAIL")
                )
            print(f"  ARC N={n:<5} {shape:<11} (probe cap {n + 1}, mean cap {cap}) "
                  + "; ".join(figures))
    for n in STRESS_READERS:
        reg = RfRegister(encode_versioned(0, 64), n, 64)
        reads, writes = _rmw_by_kind(run_schedule(reg, instrument(reg), write_every=2))
        ok_here = (
            set(reads) == set(writes) == {1}
            and reg.rmw_counters() == (sum(reads), sum(writes))
        )
        ok = ok and ok_here
        print(f"  RF  N={n:<5} RMW per read {sorted(set(reads))}, per write {sorted(set(writes))}"
              + ("" if ok_here else " FAIL"))
    _verdict(
        3, ok,
        "measured at the words: ARC reads <= 2 RMW (0 when the value is unchanged), "
        "writes 1 RMW, <= N+1 probes and a bounded mean on every reader shape, "
        "histories atomic; RF 1 and 1; totals match rmw_counters()",
    )
    assert ok


def test_criterion_4_accounting_bounds(stress_matrix):
    # Each run used CheckedArcRegister: the outstanding-reads sum before each
    # write, the presence counter after each R4 and the retired index at
    # each W2 raise on violation, aborting the run.
    ok = True
    for cfg, _, _, checks in stress_matrix:
        ok = ok and checks > 0
        print(f"  [{'ok' if checks > 0 else 'FAIL'}] readers={cfg.readers:<3} "
              f"size={cfg.size:<6} checks={checks}")
    _verdict(4, ok, "accounting checks ran and stayed silent across the matrix")
    assert ok


def test_criterion_5_rmw_economy():
    n_readers, reads_needed = 4, 1_000_000

    arc = ArcRegister(encode_versioned(0, 4096), n_readers, 4096)
    readers = [arc.new_reader() for _ in range(n_readers)]
    writer = arc.writer()
    for seq in range(1, 11):
        writer.write(encode_versioned(seq, 4096))
    for r in readers:
        r.read()  # settle on the final value
    baseline, _ = arc.rmw_counters()
    for i in range(reads_needed):
        readers[i % n_readers].read()
    arc_delta = arc.rmw_counters()[0] - baseline

    rf = RfRegister(encode_versioned(0, 4096), 1, 4096)
    rf_reader = rf.new_reader()
    for i in range(reads_needed):
        rf_reader.read()
    rf_read_rmw, _ = rf.rmw_counters()

    ok = arc_delta == 0 and rf_read_rmw >= reads_needed
    _verdict(
        5,
        ok,
        f"writer paused: ARC read RMW delta {arc_delta} over {reads_needed} reads; "
        f"RF read RMW {rf_read_rmw} >= {reads_needed}",
    )
    assert arc_delta == 0
    assert rf_read_rmw >= reads_needed


def test_criterion_6_capacity():
    cfg = BenchConfig(
        algo=RegisterKind.ARC,
        readers=128,
        size=4096,
        duration=2.0,
        mode="work",
        verify=True,
        min_ops=MIN_OPS,
        switch_interval=0.001,
    )
    result, checks = _checked_run(cfg)
    arc_ok = result.total_ops >= MIN_OPS and result.violations == 0 and checks > 0
    try:
        RfRegister(b"\x00" * 8, 59, 64)
        rf_ok = False
    except CapacityError:
        rf_ok = True
    _verdict(
        6,
        arc_ok and rf_ok,
        f"128-reader suite: {result.total_ops} ops, {result.violations} violations, "
        f"{checks} accounting checks; RF at 59 readers raises",
    )
    assert arc_ok
    assert rf_ok


def test_criterion_7_memory_bound():
    ok = True
    for n in (2, 8, 31):
        arc = ArcRegister(b"\x00" * 8, n, 64)
        rf = RfRegister(b"\x00" * 8, min(n, 58), 64)
        ok = ok and arc.content_buffer_count == n + 2
        ok = ok and rf.content_buffer_count == min(n, 58) + 2
    # The same seeded schedule for all three. ARC and RF allocate nothing
    # after construction; Peterson copies the value on every operation, so
    # it holds one buffer per write and per read on top of the initial one.
    schedule = dict(ops=2_000, write_every=4, seed=7)
    arc = ArcRegister(encode_versioned(0, 64), 8, 64)
    rf = RfRegister(encode_versioned(0, 64), 8, 64)
    for reg in (arc, rf):
        run_schedule(reg, Meter(), **schedule)
    ops_ok = arc.content_buffer_count == rf.content_buffer_count == 8 + 2
    peterson = PetersonRegister(encode_versioned(0, 64), 8, 64)
    costs = run_schedule(peterson, Meter(), **schedule)
    writes = sum(c.kind == "write" for c in costs)
    peterson_ok = writes > 0 and peterson.content_buffer_count == 1 + len(costs)
    _verdict(
        7,
        ok and ops_ok and peterson_ok,
        f"exactly N+2 content buffers for ARC and RF, also after {len(costs)} "
        f"operations (ARC {arc.content_buffer_count}, RF {rf.content_buffer_count}); "
        f"Peterson {peterson.content_buffer_count} = 1 + {writes} writes + "
        f"{len(costs) - writes} reads",
    )
    assert ok
    assert ops_ok
    assert peterson_ok


def test_criterion_8_relative_performance():
    # Non-gating: environment-dependent ordering check, warns instead of
    # failing, and is skipped below 8 cores.
    cores = os.cpu_count() or 1
    if cores < 8:
        _verdict(8, True, f"skipped (non-gating): host has {cores} < 8 cores")
        pytest.skip(f"relative-performance probe needs >= 8 cores, host has {cores}")

    def throughput(algo):
        cfg = BenchConfig(
            algo=algo, readers=16, size=131072, duration=1.5, mode="hold",
        )
        return statistics.median(run_bench(cfg).throughput_ops_s for _ in range(3))

    t_arc = throughput(RegisterKind.ARC)
    t_rf = throughput(RegisterKind.RF)
    t_lock = throughput(RegisterKind.RWLOCK)
    ordered = t_arc >= t_rf >= t_lock
    detail = f"hold 16x128KB: ARC {t_arc:.0f} / RF {t_rf:.0f} / rwlock {t_lock:.0f} ops/s"
    if not ordered:
        warnings.warn(f"expected throughput ordering not observed: {detail}")
    _verdict(8, True, detail + (" (ordering holds)" if ordered else " (WARN: ordering differs)"))


def test_criterion_9_mutation_is_caught():
    def broken_factory(cfg):
        return BrokenArcRegister(
            encode_versioned(0, cfg.size), cfg.readers, cfg.size
        )

    deadline = time.monotonic() + 10.0
    caught = 0
    while time.monotonic() < deadline and caught == 0:
        cfg = BenchConfig(
            algo=RegisterKind.ARC,
            readers=4,
            size=4096,
            duration=min(2.0, max(0.5, deadline - time.monotonic())),
            mode="work",
            verify=True,
            switch_interval=0.0002,
        )
        result = run_bench(cfg, register_factory=broken_factory)
        caught = result.violations
    _verdict(
        9,
        caught >= 1,
        f"publish-before-copy mutant: {caught} violation(s)/torn read(s) within 10s",
    )
    assert caught >= 1
