"""Throughput benchmark driver: hold and work modes, sweeps, CSV output.

One writer thread updates the register continuously while N reader threads
read continuously (zero think time). In ``hold`` mode a write copies a
fixed zero-filled template (stamped with an 8-byte version word so ordering
checks still work when verification is on) and a read only fetches the
buffer view; in ``work`` mode every write generates a fresh versioned
payload and every read scans the whole retrieved buffer. With ``verify`` enabled, all
operations are recorded and the history checks run before results are
reported. Every run ends with a quiescent read: after the join each reader
handle reads once more and must see the writer's last value, verified or
not.

Runs are duration-based with an optional minimum-operations floor: the run
continues until the duration has elapsed and the floor is met. A sweep is a
list of configs, one per run: ``load_sweep`` reads it from a matrix file.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

from .api import CapacityError, ConfigurationError, MIN_VERSIONED_SIZE, RegisterKind
from .api import decode_versioned, encode_versioned
from .arc import ArcRegister
from .baselines import PetersonRegister, RfRegister, RwlockRegister
from .history import History, Recorder, check_history

log = logging.getLogger(__name__)

CSV_HEADER = (
    "algo,mode,readers,size_bytes,duration_s,reads,writes,"
    "read_rmw,write_rmw,throughput_ops_s,violations"
)


@dataclass
class BenchConfig:
    """One workload configuration, checked field by field when it is made.

    ``min_ops`` keeps the run going past ``duration`` until the operation
    floor is met. ``switch_interval`` temporarily overrides the
    interpreter's thread switch interval to force finer interleaving.
    ``history_out`` names a file that a verified run saves its merged
    history to, before checking it, for ``History.load``. A bad field
    raises ``ConfigurationError``; more readers than ``algo`` admits raise
    ``CapacityError``.
    """

    algo: RegisterKind = RegisterKind.ARC
    readers: int = 4
    size: int = 4096
    duration: float = 1.0
    mode: str = "hold"
    verify: bool = False
    min_ops: int = 0
    switch_interval: float | None = None
    history_out: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if isinstance(self.algo, str):
            self.algo = RegisterKind.parse(self.algo)
        for name, (types, expected) in _FIELD_TYPES.items():
            value = getattr(self, name)
            # A bool is an int to Python, and JSON true loads as one.
            if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
                raise ConfigurationError(f"{name} must be {expected}, got {value!r}")
        if self.min_ops < 0:
            raise ConfigurationError(f"min_ops must not be negative, got {self.min_ops}")
        if self.readers < 1:
            raise ConfigurationError(f"need at least one reader, got {self.readers}")
        if self.size < MIN_VERSIONED_SIZE:
            raise ConfigurationError(
                f"size must be at least {MIN_VERSIONED_SIZE} bytes, got {self.size}"
            )
        if self.mode not in ("hold", "work"):
            raise ConfigurationError(f"mode must be 'hold' or 'work', got {self.mode!r}")
        if not 0 < self.duration < math.inf:  # NaN fails too: it would never end
            raise ConfigurationError(
                f"duration must be a positive finite number of seconds, got {self.duration!r}"
            )
        # sys.setswitchinterval refuses 0 but takes NaN, with which the
        # interpreter aborts as the run's threads start.
        if self.switch_interval is not None and not 0 < self.switch_interval < math.inf:
            raise ConfigurationError(
                f"switch_interval must be a positive finite number, got {self.switch_interval!r}"
            )
        if self.history_out is not None and not self.verify:
            raise ConfigurationError("saving the history needs verify: nothing is recorded")
        _REGISTER_TYPES[self.algo].check_readers(self.readers)


# The type each ``BenchConfig`` field must have: (types, description).
_FIELD_TYPES = {
    "algo": (RegisterKind, "a register kind"),
    "readers": (int, "an integer"),
    "size": (int, "an integer"),
    "duration": ((int, float), "a number"),
    "mode": (str, "a string"),
    "verify": (bool, "a boolean"),
    "min_ops": (int, "an integer"),
    "switch_interval": ((int, float, type(None)), "a number or None"),
    "history_out": ((str, os.PathLike, type(None)), "a path or None"),
}


@dataclass
class BenchResult:
    """Outcome of one run of one configuration."""

    algo: RegisterKind
    mode: str
    readers: int
    size: int
    duration_s: float
    reads: int  # reader-role operations
    writes: int  # writer-role operations
    read_rmw: int
    write_rmw: int
    throughput_ops_s: float
    violations: int
    no_past: int = 0
    inversions: int = 0
    torn_reads: int = 0
    quiescent_misses: int = 0  # reader handles that missed the last write after the join

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes

    def csv_row(self) -> str:
        return (
            f"{self.algo.name},{self.mode},{self.readers},{self.size},"
            f"{self.duration_s:.3f},{self.reads},{self.writes},"
            f"{self.read_rmw},{self.write_rmw},"
            f"{self.throughput_ops_s:.1f},{self.violations}"
        )


_REGISTER_TYPES = {
    RegisterKind.ARC: ArcRegister,
    RegisterKind.RF: RfRegister,
    RegisterKind.PETERSON: PetersonRegister,
    RegisterKind.RWLOCK: RwlockRegister,
}


def make_register(cfg: BenchConfig):
    """Build the register under test with a version-0 initial value."""
    initial = encode_versioned(0, cfg.size)
    return _REGISTER_TYPES[cfg.algo](initial, cfg.readers, cfg.size)


class _RunControl:
    __slots__ = ("stop", "errors", "last_seq")

    def __init__(self) -> None:
        self.stop = False
        self.errors: list[BaseException] = []
        self.last_seq = 0  # the writer's last sequence number, set as it stops


def _reader_loop(ctl, barrier, handle, cfg: BenchConfig, recorder) -> None:
    try:
        read = handle.read
        record = recorder.record_read if recorder is not None else None
        barrier.wait()
        now = time.monotonic_ns
        if cfg.mode == "work" and cfg.verify:
            while not ctl.stop:
                t0 = now()
                buf, sz = read()
                seq, intact = decode_versioned(buf, sz)
                record(t0, now(), seq, intact)
        elif cfg.mode == "work":
            while not ctl.stop:
                buf, sz = read()
                decode_versioned(buf, sz)
        elif cfg.verify:  # hold + verify: peek the version word only
            while not ctl.stop:
                t0 = now()
                buf, sz = read()
                seq = int.from_bytes(buf[:8], "little")
                record(t0, now(), seq, True)
        else:
            while not ctl.stop:
                read()
    except BaseException as exc:  # surfaced after join
        ctl.errors.append(exc)
        ctl.stop = True
    finally:
        handle.finish()  # a held read lock would block the writer's last write


def _writer_loop(ctl, barrier, handle, cfg: BenchConfig, recorder) -> None:
    try:
        template = bytearray(cfg.size)
        write = handle.write
        record = recorder.record_write if recorder is not None else None
        barrier.wait()
        now = time.monotonic_ns
        seq = 0
        if cfg.mode == "hold":
            while not ctl.stop:
                seq += 1
                template[0:8] = seq.to_bytes(8, "little")
                if cfg.verify:
                    t0 = now()
                    write(template)
                    record(t0, now(), seq)
                else:
                    write(template)
        else:
            while not ctl.stop:
                seq += 1
                data = encode_versioned(seq, cfg.size)
                if cfg.verify:
                    t0 = now()
                    write(data)
                    record(t0, now(), seq)
                else:
                    write(data)
        ctl.last_seq = seq
    except BaseException as exc:
        ctl.errors.append(exc)
        ctl.stop = True


def run_bench(cfg: BenchConfig, register_factory=make_register) -> BenchResult:
    """Run the workload once and return its sample."""
    register = register_factory(cfg)
    n_threads = cfg.readers + 1
    ctl = _RunControl()
    barrier = threading.Barrier(n_threads + 1)
    recorders = [Recorder(i) for i in range(n_threads)] if cfg.verify else [None] * n_threads

    writer_handle = register.writer()
    reader_handles = [register.new_reader() for _ in range(cfg.readers)]
    threads = [
        threading.Thread(
            target=_writer_loop,
            args=(ctl, barrier, writer_handle, cfg, recorders[0]),
            name="bench-writer",
            daemon=True,
        )
    ]
    for i, handle in enumerate(reader_handles):
        threads.append(
            threading.Thread(
                target=_reader_loop,
                args=(ctl, barrier, handle, cfg, recorders[i + 1]),
                name=f"bench-reader-{i}",
                daemon=True,
            )
        )

    old_interval = sys.getswitchinterval()
    if cfg.switch_interval is not None:
        sys.setswitchinterval(cfg.switch_interval)
    try:
        for t in threads:
            t.start()
        barrier.wait()
        t_start = time.monotonic()
        deadline = t_start + cfg.duration
        while True:
            time.sleep(0.02)
            if ctl.stop:
                break
            if time.monotonic() >= deadline and (
                writer_handle.writes + sum(h.reads for h in reader_handles) >= cfg.min_ops
            ):
                break
        ctl.stop = True
        t_stop = time.monotonic()
        for t in threads:
            t.join()
    finally:
        if cfg.switch_interval is not None:
            sys.setswitchinterval(old_interval)
    if ctl.errors:
        raise ctl.errors[0]

    elapsed = t_stop - t_start
    writes = writer_handle.writes
    reads = sum(h.reads for h in reader_handles)
    read_rmw, write_rmw = register.rmw_counters()
    misses = _quiescent_misses(reader_handles, cfg.mode, ctl.last_seq)
    no_past = inversions = torn = 0
    if cfg.verify:
        history = History.from_recorders([r for r in recorders if r is not None])
        if cfg.history_out is not None:
            history.save(cfg.history_out)
        report = check_history(history)
        no_past = len(report.no_past)
        inversions = len(report.inversions)
        torn = report.torn_reads
    return BenchResult(
        algo=cfg.algo,
        mode=cfg.mode,
        readers=cfg.readers,
        size=cfg.size,
        duration_s=elapsed,
        reads=reads,
        writes=writes,
        read_rmw=read_rmw,
        write_rmw=write_rmw,
        throughput_ops_s=(reads + writes) / elapsed if elapsed > 0 else 0.0,
        violations=no_past + inversions + torn + misses,
        no_past=no_past,
        inversions=inversions,
        torn_reads=torn,
        quiescent_misses=misses,
    )


def _quiescent_misses(handles, mode: str, last_seq: int) -> int:
    """Read each reader handle once more, then finish it.

    Returns how many of these reads missed the writer's last value: in
    work mode the payload must decode intact to ``last_seq``, in hold mode
    its sequence word must be ``last_seq``.
    """
    misses = 0
    for handle in handles:
        buf, size = handle.read()
        if mode == "work":
            seq, intact = decode_versioned(buf, size)
        else:
            seq, intact = int.from_bytes(buf[:8], "little"), True
        misses += not (intact and seq == last_seq)
        handle.finish()
    return misses


def load_sweep(path) -> list[BenchConfig]:
    """Read a JSON matrix file as the configs of its runs, in run order.

    The runs are the product of the axes ``algos``, ``readers`` and
    ``sizes``, each a non-empty list, and each case runs ``repeat`` times
    in a row (default 1). The file may also set ``duration``, ``mode``,
    ``verify`` and ``min_ops`` for every run. Every case is built
    before any runs, so one bad value refuses the whole file
    (``ConfigurationError``); a case beyond an algorithm's capacity is
    skipped with a note.
    """
    with open(path, "r", encoding="utf-8") as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise ConfigurationError(f"matrix file {path} must hold a JSON object")
    axes = [settings.pop(key, None) for key in ("algos", "readers", "sizes")]
    repeat = settings.pop("repeat", 1)
    unknown = settings.keys() - {"duration", "mode", "verify", "min_ops"}
    if unknown:
        raise ConfigurationError(f"matrix file {path}: unknown keys {sorted(unknown)}")
    if not all(isinstance(axis, list) and axis for axis in axes):
        raise ConfigurationError(
            f"matrix file {path}: algos, readers and sizes must be non-empty lists"
        )
    if isinstance(repeat, bool) or not isinstance(repeat, int) or repeat < 1:
        raise ConfigurationError(f"matrix file {path}: repeat must be a positive integer")
    configs = []
    for algo, readers, size in itertools.product(*axes):
        try:
            cfg = BenchConfig(algo, readers, size, **settings)
        except CapacityError as exc:
            algo = RegisterKind.parse(algo).name
            log.warning("skipping %s at %d readers: %s", algo, readers, exc)
            continue
        configs += [cfg] * repeat
    return configs


def csv_text(results) -> str:
    """The CSV of ``results``: the header, then one row per run, in order."""
    return "".join(line + "\n" for line in [CSV_HEADER, *(r.csv_row() for r in results)])


def emit_csv(results, path) -> None:
    """Write results as CSV with the fixed column order."""
    if not results:
        raise ConfigurationError("no results to emit")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(csv_text(results))
