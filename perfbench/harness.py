"""Workloads, driver loops and checks of the arcreg benchmark.

A run is a sequence of segments. Each segment builds a fresh register,
starts its driver, measures a fixed window, stops, reads every handle once
more (the quiescent check) and verifies the recorded history. Segment 0 is
a warm-up: it is checked but not timed.

The threaded workloads use two working threads, whatever the reader count:
one writer thread and one reader thread that drives all reader handles
round-robin (a handle may migrate between operations, so one thread may
hold many). The churn workload runs writer and readers on one thread from a
seeded schedule. The package is driven only through its public calls.

Other tenants of the host slow a CPU by up to 1.8x for stretches of
seconds. Each segment therefore runs on the CPU that a short loop finds
fastest (``pin_least_contended``), and segments that still ran slow are
left out of the figures (``_uncontended``).
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
import traceback
from array import array
from dataclasses import dataclass

import numpy as np

from arcreg import (
    ArcRegister,
    AtomicU64,
    CorruptedHistoryError,
    History,
    Recorder,
    RfRegister,
    check_history,
    decode_versioned,
    encode_versioned,
)
from arcreg.history import KIND_READ, KIND_WRITE

from . import spans

#: The writer must complete at least this share of a window's operations.
MIN_WRITE_SHARE = 0.01
#: Churn schedule: one operation in this many is a write.
CHURN_WRITE_EVERY = 10
CHURN_SCHEDULE_LEN = 1 << 16
WARMUP_S = 0.3
SEGMENT_S = 0.5
#: A segment whose read p50 exceeds the run's best by more than this factor
#: ran while the host was contended (see ``_uncontended``).
CONTENDED_SLACK = 1.15
TIMEOUT_S = 10.0
#: Traced runs write the spans of this many leading operations per thread
#: and traced segment to the span file.
SPANS_KEPT_PER_THREAD = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration; ``BENCHMARK.json`` says why each exists."""

    name: str
    register: type
    readers: int
    size: int
    work: bool  # encode every write and decode (scan) every read
    churn: bool = False  # one thread follows a seeded schedule

    @property
    def layer(self) -> str:
        return "arc" if self.register is ArcRegister else "baselines"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hold-4k-n16", ArcRegister, 16, 4096, work=False),
        Workload("work-128k-n4", ArcRegister, 4, 128 * 1024, work=True),
        Workload("churn-4k-n31", ArcRegister, 31, 4096, work=False, churn=True),
        Workload("rf-hold-4k-n16", RfRegister, 16, 4096, work=False),
    )
}


@dataclass
class Inputs:
    """Everything a run derives from its seed."""

    template: bytes  # hold-mode payload body; bytes 0..7 carry the seq
    initial: bytes
    order: list[int]  # reader handles in round-robin order
    schedule: list[int]  # churn: -1 is a write, otherwise a handle index


def make_inputs(wl: Workload, seed: int) -> Inputs:
    rng = random.Random(seed)
    template = bytes(8) + rng.randbytes(wl.size - 8)
    initial = encode_versioned(0, wl.size) if wl.work else template
    order = list(range(wl.readers))
    rng.shuffle(order)
    schedule = [
        -1 if rng.randrange(CHURN_WRITE_EVERY) == 0 else rng.randrange(wl.readers)
        for _ in range(CHURN_SCHEDULE_LEN if wl.churn else 0)
    ]
    return Inputs(template, initial, order, schedule)


# ---------------------------------------------------------------------------
# Driver loops. Each operation is timed from just before the payload is
# prepared or the read is called to just after the payload check, and
# recorded with those bounds.
# ---------------------------------------------------------------------------


class _Control:
    __slots__ = ("stop", "errors", "last_seq", "cpu_share", "barriers")

    def __init__(self, barriers) -> None:
        self.stop = False
        self.errors: list[str] = []
        self.last_seq = 0
        self.cpu_share: dict[str, float] = {}
        self.barriers = barriers

    def fail(self, exc: BaseException) -> None:
        self.errors.append("".join(traceback.format_exception(exc)))
        self.stop = True
        for barrier in self.barriers:
            barrier.abort()


def _preparer(wl: Workload, template: bytes):
    if wl.work:
        size = wl.size
        return lambda seq: encode_versioned(seq, size)
    buf = bytearray(template)

    def stamp(seq: int) -> bytearray:
        buf[0:8] = seq.to_bytes(8, "little")
        return buf

    return stamp


def _write_loop(ctl, write, record, prepare) -> None:
    now = time.monotonic_ns
    seq = 0
    while not ctl.stop:
        seq += 1
        t0 = now()
        write(prepare(seq))
        record(t0, now(), seq)
        ctl.last_seq = seq


def _write_traced(ctl, write, record, prepare, rows) -> None:
    now = time.monotonic_ns
    add = rows.extend
    seq = 0
    while not ctl.stop:
        seq += 1
        t0 = now()
        data = prepare(seq)
        t1 = now()
        write(data)
        t2 = now()
        record(t0, t2, seq)
        add((spans.WRITE, 0, t0, t1, t2, now(), 0))
        ctl.last_seq = seq


def _read_loop(ctl, pairs, work: bool) -> None:
    now = time.monotonic_ns
    if work:
        while not ctl.stop:
            for read, record in pairs:
                t0 = now()
                buf, size = read()
                seq, intact = decode_versioned(buf, size)
                record(t0, now(), seq, intact)
    else:
        while not ctl.stop:
            for read, record in pairs:
                t0 = now()
                buf, _ = read()
                seq = int.from_bytes(buf[:8], "little")
                record(t0, now(), seq, True)


def _read_traced(ctl, pairs, work: bool, rows, tids) -> None:
    now = time.monotonic_ns
    add = rows.extend
    prev = [None] * len(pairs)
    while not ctl.stop:
        for i, (read, record) in enumerate(pairs):
            t0 = now()
            buf, size = read()
            t1 = now()
            if work:
                seq, intact = decode_versioned(buf, size)
            else:
                seq, intact = int.from_bytes(buf[:8], "little"), True
            t2 = now()
            record(t0, t2, seq, intact)
            add((spans.READ, tids[i], t0, t1, t2, now(), buf is not prev[i]))
            prev[i] = buf


def _churn_loop(ctl, deadline, schedule, pairs, write, record_write, prepare, rows) -> None:
    now = time.monotonic_ns
    seq = 0
    if rows is None:
        while True:
            for op in schedule:
                t0 = now()
                if t0 >= deadline:
                    return
                if op < 0:
                    seq += 1
                    write(prepare(seq))
                    record_write(t0, now(), seq)
                    ctl.last_seq = seq
                else:
                    read, record = pairs[op]
                    buf, _ = read()
                    s = int.from_bytes(buf[:8], "little")
                    record(t0, now(), s, True)
    add = rows.extend
    prev = [None] * len(pairs)
    while True:
        for op in schedule:
            t0 = now()
            if t0 >= deadline:
                return
            if op < 0:
                seq += 1
                data = prepare(seq)
                t1 = now()
                write(data)
                t2 = now()
                record_write(t0, t2, seq)
                add((spans.WRITE, 0, t0, t1, t2, now(), 0))
                ctl.last_seq = seq
            else:
                read, record = pairs[op]
                buf, _ = read()
                t1 = now()
                s = int.from_bytes(buf[:8], "little")
                t2 = now()
                record(t0, t2, s, True)
                add((spans.READ, op + 1, t0, t1, t2, now(), buf is not prev[op]))
                prev[op] = buf


def _timed(ctl, role: str, body) -> None:
    """Run ``body`` and store this thread's CPU time over its wall time."""
    c0, w0 = time.thread_time(), time.monotonic()
    try:
        body()
    finally:
        wall = time.monotonic() - w0
        ctl.cpu_share[role] = (time.thread_time() - c0) / wall if wall > 0 else 0.0


def _thread_main(ctl, role: str, ready, go, body) -> None:
    try:
        ready.wait(TIMEOUT_S)
        go.wait(TIMEOUT_S)
        _timed(ctl, role, body)
    except Exception as exc:  # reported and counted after the join
        ctl.fail(exc)


# ---------------------------------------------------------------------------
# One segment
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """What one segment left behind for the checks and metrics."""

    setup_s: float
    t_start: int  # monotonic ns at the start-barrier release
    t_stop: int  # monotonic ns when the stop was given
    recorders: list
    errors: list[str]
    last_seq: int
    quiescent_reads: int
    quiescent_failures: int
    rmw: tuple[int, int]
    buffers: int
    cpu_share: dict[str, float]
    rows: list  # traced: per-thread row arrays


def run_segment(wl: Workload, inputs: Inputs, seconds: float, traced: bool, make_register) -> Segment:
    ready = threading.Barrier(1 if wl.churn else 3)
    go = threading.Barrier(1 if wl.churn else 3)
    ctl = _Control((ready, go))
    prepare = _preparer(wl, inputs.template)
    rows = [array("q"), array("q")] if traced else []

    t0 = time.perf_counter()
    register = make_register(inputs.initial, wl.readers, wl.size)
    handles = [register.new_reader() for _ in range(wl.readers)]
    writer = register.writer()
    recorders = [Recorder(tid) for tid in range(wl.readers + 1)]
    pairs = [(handles[i].read, recorders[i + 1].record_read) for i in inputs.order]
    tids = [i + 1 for i in inputs.order]
    threads = []
    if not wl.churn:
        if traced:
            write_body = lambda: _write_traced(ctl, writer.write, recorders[0].record_write, prepare, rows[0])
            read_body = lambda: _read_traced(ctl, pairs, wl.work, rows[1], tids)
        else:
            write_body = lambda: _write_loop(ctl, writer.write, recorders[0].record_write, prepare)
            read_body = lambda: _read_loop(ctl, pairs, wl.work)
        threads = [
            threading.Thread(target=_thread_main, args=(ctl, role, ready, go, body), name=f"bench-{role}", daemon=True)
            for role, body in (("writer", write_body), ("reader", read_body))
        ]
        for t in threads:
            t.start()
    try:
        ready.wait(TIMEOUT_S)
        setup_s = time.perf_counter() - t0
        t_start = time.monotonic_ns()
        go.wait(TIMEOUT_S)
    except threading.BrokenBarrierError as exc:
        if not ctl.errors:
            ctl.fail(exc)
        setup_s, t_start = time.perf_counter() - t0, time.monotonic_ns()

    if wl.churn:
        t_stop = t_start + int(seconds * 1e9)
        by_handle = [(handles[i].read, recorders[i + 1].record_read) for i in range(wl.readers)]
        try:
            _timed(ctl, "reader", lambda: _churn_loop(
                ctl, t_stop, inputs.schedule, by_handle, writer.write,
                recorders[0].record_write, prepare, rows[0] if traced else None))
        except Exception as exc:
            ctl.fail(exc)
        ctl.cpu_share["writer"] = ctl.cpu_share.get("reader", 0.0)
    else:
        if not ctl.stop:
            time.sleep(seconds)
        t_stop = time.monotonic_ns()
        ctl.stop = True
        for t in threads:
            t.join(TIMEOUT_S)
            if t.is_alive():
                ctl.errors.append(f"{t.name} did not stop within {TIMEOUT_S} s")

    failures = 0
    if not any(t.is_alive() for t in threads):
        expected = prepare(ctl.last_seq)
        for h in handles:
            try:
                buf, size = h.read()
                ok = size == wl.size and buf[:size] == expected
            except Exception as exc:
                ctl.errors.append("".join(traceback.format_exception(exc)))
                ok = False
            failures += not ok
    return Segment(
        setup_s=setup_s,
        t_start=t_start,
        t_stop=t_stop,
        recorders=recorders,
        errors=ctl.errors,
        last_seq=ctl.last_seq,
        quiescent_reads=len(handles),
        quiescent_failures=failures,
        rmw=register.rmw_counters(),
        buffers=register.content_buffer_count,
        cpu_share=ctl.cpu_share,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Checks and per-segment figures
# ---------------------------------------------------------------------------


@dataclass
class Checked:
    """Verdict and timing figures of one segment."""

    attempted: int
    failed: int
    problems: list[str]
    window_s: float
    reads: int  # completed inside the window
    writes: int
    read_lat_ns: tuple[float, float, int]  # p50, p99, samples
    write_lat_ns: tuple[float, float, int]
    merge_s: float
    check_s: float
    ops: int  # all recorded operations
    all_reads: int  # recorded reads plus the quiescent ones
    all_writes: int


def _percentiles(values: np.ndarray) -> tuple[float, float, int]:
    if not len(values):
        return 0.0, 0.0, 0
    p50, p99 = np.percentile(values, [50, 99])
    return float(p50), float(p99), len(values)


def check_segment(seg: Segment) -> Checked:
    problems = [f"operation raised:\n{e}" for e in seg.errors]
    failed = len(seg.errors) + seg.quiescent_failures
    if seg.quiescent_failures:
        problems.append(f"{seg.quiescent_failures} handles missed the last write (seq {seg.last_seq}) after the stop")

    t = time.perf_counter()
    history = History.from_recorders(seg.recorders)
    merge_s = time.perf_counter() - t
    t = time.perf_counter()
    try:
        report = check_history(history)
    except CorruptedHistoryError as exc:
        failed += 1
        problems.append(f"corrupt history: {exc}")
    else:
        failed += report.total_violations
        if report.total_violations:
            problems.append(
                f"{len(report.no_past)} stale/future reads, {len(report.inversions)} "
                f"new-old inversions, {report.torn_reads} torn reads; first: "
                f"{(report.no_past + report.inversions)[:3]}"
            )
    check_s = time.perf_counter() - t

    is_read = history.kind == KIND_READ
    in_window = history.response <= seg.t_stop
    latency = history.response - history.invocation
    reads = int((is_read & in_window).sum())
    writes = int(((history.kind == KIND_WRITE) & in_window).sum())

    # Writer-progress guard: a run whose writer barely wrote, or whose
    # readers never saw a new value, tests nothing.
    order = np.lexsort((history.invocation[is_read], history.thread[is_read]))
    tid, seq = history.thread[is_read][order], history.seq[is_read][order]
    new_values = int(((tid[1:] == tid[:-1]) & (seq[1:] != seq[:-1])).sum())
    if writes < max(1, MIN_WRITE_SHARE * (reads + writes)):
        failed += 1
        problems.append(f"writer progress: {writes} writes against {reads} reads in the window")
    if new_values == 0:
        failed += 1
        problems.append("no read ever returned a new value")

    return Checked(
        attempted=len(history) + seg.quiescent_reads + len(seg.errors),
        failed=failed,
        problems=problems,
        window_s=(seg.t_stop - seg.t_start) / 1e9,
        reads=reads,
        writes=writes,
        read_lat_ns=_percentiles(latency[is_read & in_window]),
        write_lat_ns=_percentiles(latency[~is_read & in_window]),
        merge_s=merge_s,
        check_s=check_s,
        ops=len(history),
        all_reads=int(is_read.sum()) + seg.quiescent_reads,
        all_writes=int((~is_read).sum()),
    )


# ---------------------------------------------------------------------------
# Traced figures
# ---------------------------------------------------------------------------


def _p50(values: np.ndarray) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_figures(wl: Workload, rows: np.ndarray, window_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures of one traced segment, and its self time per span name (ns)."""
    kind, t0, t1, t2, t3 = rows[:, 0], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
    is_read, is_write = kind == spans.READ, kind == spans.WRITE
    switched = is_read & (rows[:, 6] != 0)
    self_ns = spans.self_time(spans.span_table(rows, wl.layer, wl.work), len(rows), t3 - t0)
    window_ns = window_s * 1e9
    layer = wl.layer
    figures = {
        f"{layer}.read_fast_ns": _p50((t1 - t0)[is_read & ~switched]),
        f"{layer}.read_switch_ns": _p50((t1 - t0)[switched]),
        f"{layer}.switch_ratio": float(switched.sum()) / max(1, int(is_read.sum())),
        f"{layer}.write_ns": _p50((t2 - t1)[is_write]),
        f"{layer}.read_busy_share": self_ns[f"{layer}.read"] / window_ns,
        f"{layer}.write_busy_share": self_ns[f"{layer}.write"] / window_ns,
        "api.encode_ns": _p50((t1 - t0)[is_write]) if wl.work else 0.0,
        "api.decode_ns": _p50((t2 - t1)[is_read]) if wl.work else 0.0,
        "api.busy_share": (self_ns["api.encode"] + self_ns["api.decode"]) / window_ns,
        "history.record_ns": _p50(t3 - t2),
        "history.record_busy_share": self_ns["history.record"] / window_ns,
    }
    return figures, self_ns


def atomics_calibration() -> dict[str, float]:
    """ns per call of an RMW and of a plain load on a fresh word, loop included."""
    word = AtomicU64(0)
    n = 200_000
    rmw, load = [], []
    for _ in range(5):
        add, get = word.add_and_fetch, word.load
        t = time.perf_counter_ns()
        for _ in range(n):
            add(1)
        rmw.append((time.perf_counter_ns() - t) / n)
        t = time.perf_counter_ns()
        for _ in range(n):
            get()
        load.append((time.perf_counter_ns() - t) / n)
    return {"atomics.rmw_ns": statistics.median(rmw), "atomics.load_ns": statistics.median(load)}


# ---------------------------------------------------------------------------
# A whole run
# ---------------------------------------------------------------------------

END_TO_END = (
    "read_ops_per_s", "write_ops_per_s", "read_p50_us", "read_p99_us",
    "write_p50_us", "write_p99_us", "verify_s_per_mop", "setup_s", "buffer_kb",
)
PER_LAYER = tuple(
    [f"{layer}.{suffix}" for layer in ("arc", "baselines") for suffix in (
        "read_fast_ns", "read_switch_ns", "switch_ratio", "write_ns",
        "read_busy_share", "write_busy_share")]
    + ["atomics.rmw_ns", "atomics.load_ns", "atomics.read_rmw_per_op", "atomics.write_rmw_per_op",
       "api.encode_ns", "api.decode_ns", "api.busy_share",
       "history.record_ns", "history.record_busy_share",
       "history.merge_s_per_mop", "history.check_s_per_mop",
       "driver.reader_cpu_share", "driver.writer_cpu_share", "driver.trace_overhead"]
)


def _uncontended(segments: list) -> list:
    """The segments whose read p50 is within ``CONTENDED_SLACK`` of the best.

    When both CPUs are contended, pinning cannot help; the segments measured
    then are set aside, so that the figures are medians over the segments
    the host left alone. A change that slows the program slows every
    segment, the best one included, and still shows.
    """
    best = min((item[1].read_lat_ns[0] for item in segments), default=0.0)
    return [item for item in segments if item[1].read_lat_ns[0] <= CONTENDED_SLACK * best]


@dataclass
class RunResult:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]  # end-to-end, or per-layer when traced
    samples: dict[str, int]  # sample count behind each latency percentile
    self_ns: dict[str, float]  # traced: self time per span name over all traced segments
    kept: tuple[int, int]  # uncontended segments kept, segments measured

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _spin() -> float:
    t = time.perf_counter()
    for _ in range(20_000):
        pass
    return time.perf_counter() - t


def pin_least_contended(cpus: list[int]) -> int:
    """Pin the calling thread, and the threads it starts, to the fastest CPU.

    Other tenants of the host slow one CPU or the other by up to 1.8x for
    stretches of seconds. Under the GIL the benchmark uses one core at a
    time anyway, so each segment runs its threads on the CPU where a short
    loop ran fastest just before.
    """
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_spin() for _ in range(3)), cpu))
    best = min(timings)[1]
    os.sched_setaffinity(0, {best})
    return best


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 make_register=None, spans_path=None) -> RunResult:
    """Run a warm-up segment, then ``seconds`` of measured segments.

    Segments last about half a second each. A traced run alternates traced and
    untraced segments, so that the tracing overhead is measured in the same
    run. Spans of the first operations of every traced segment are kept and,
    when ``spans_path`` is given, appended to it at the end of the run.
    """
    make_register = make_register or wl.register
    inputs = make_inputs(wl, seed)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    n = max(2 if trace else 1, round(seconds / SEGMENT_S))
    attempted = failed = 0
    problems: list[str] = []
    plain: list[tuple[Segment, Checked]] = []
    traced: list[tuple[Segment, Checked, dict]] = []
    self_ns: dict[str, float] = {}
    kept_spans: list[dict] = []
    try:
        for k in range(n + 1):
            is_traced = trace and k % 2 == 1
            if len(cpus) > 1:
                pin_least_contended(cpus)
            seg = run_segment(wl, inputs, min(WARMUP_S, seconds / n) if k == 0 else seconds / n,
                              is_traced, make_register)
            chk = check_segment(seg)
            attempted += chk.attempted
            failed += chk.failed
            problems += [f"segment {k}: {p}" for p in chk.problems]
            if is_traced:
                figures, seg_self = layer_figures(wl, spans.as_rows(seg.rows), chk.window_s)
                for name, ns in seg_self.items():
                    self_ns[name] = self_ns.get(name, 0.0) + ns
                head = spans.as_rows([b[: SPANS_KEPT_PER_THREAD * spans.ROW] for b in seg.rows])
                kept_spans.append(spans.span_table(head, wl.layer, wl.work))
            seg.recorders = seg.rows = None  # the histories are checked; free them
            if k == 0:
                continue
            if is_traced:
                traced.append((seg, chk, figures))
            else:
                plain.append((seg, chk))
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    if spans_path is not None:
        span_base = 0
        for table in kept_spans:
            span_base = spans.write_csv(spans_path, table, span_base)

    med = statistics.median
    setup_s = med(s.setup_s for s, _ in plain)
    n_measured = len(plain) + len(traced)
    # Tail figures take every segment: contention moves them less than the
    # medians, and the median of many segments' p99 is the steadier one.
    every = plain
    plain, traced = _uncontended(plain), _uncontended(traced)
    measured = plain + [(s, c) for s, c, _ in traced]
    samples = {
        "read_p50_us": sum(c.read_lat_ns[2] for _, c in plain),
        "read_p99_us": sum(c.read_lat_ns[2] for _, c in every),
        "write_p50_us": sum(c.write_lat_ns[2] for _, c in plain),
        "write_p99_us": sum(c.write_lat_ns[2] for _, c in every),
    }
    read_rate = lambda segments: med(c.reads / c.window_s for _, c, *_ in segments)
    if not trace:
        metrics = {
            "read_ops_per_s": read_rate(plain),
            "write_ops_per_s": med(c.writes / c.window_s for _, c in plain),
            "read_p50_us": med(c.read_lat_ns[0] for _, c in plain) / 1e3,
            "read_p99_us": med(c.read_lat_ns[1] for _, c in every) / 1e3,
            "write_p50_us": med(c.write_lat_ns[0] for _, c in plain) / 1e3,
            "write_p99_us": med(c.write_lat_ns[1] for _, c in every) / 1e3,
            "verify_s_per_mop": med((c.merge_s + c.check_s) / c.ops * 1e6 for _, c in plain),
            "setup_s": setup_s,
            "buffer_kb": plain[-1][0].buffers * wl.size / 1024,
        }
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for key in traced[0][2]:
            metrics[key] = med(f[key] for _, _, f in traced)
        metrics.update(atomics_calibration())
        metrics.update({
            "atomics.read_rmw_per_op": med(s.rmw[0] / max(1, c.all_reads) for s, c in measured),
            "atomics.write_rmw_per_op": med(s.rmw[1] / max(1, c.all_writes) for s, c in measured),
            "history.merge_s_per_mop": med(c.merge_s / c.ops * 1e6 for _, c in measured),
            "history.check_s_per_mop": med(c.check_s / c.ops * 1e6 for _, c in measured),
            "driver.reader_cpu_share": med(s.cpu_share.get("reader", 0.0) for s, _ in plain),
            "driver.writer_cpu_share": med(s.cpu_share.get("writer", 0.0) for s, _ in plain),
            "driver.trace_overhead": 1.0 - read_rate(traced) / read_rate(plain),
        })
    if failed:
        # A failed run, a starved writer included, reports no throughput.
        metrics.pop("read_ops_per_s", None)
        metrics.pop("write_ops_per_s", None)
    return RunResult(attempted, failed, problems, metrics, samples, self_ns, (len(measured), n_measured))
