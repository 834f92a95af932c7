"""Throughput benchmark driver: hold and work modes, sweeps, CSV output.

One writer thread updates the register continuously while N reader threads
read continuously (zero think time). In ``hold`` mode a write copies a
fixed template (stamped with an 8-byte version word so ordering checks
still work when verification is on) and a read only fetches the buffer
view; in ``work`` mode every write generates a fresh versioned payload and
every read scans the whole retrieved buffer. With ``verify`` enabled, all
operations are recorded and the history checks run before results are
reported.

Runs are duration-based with an optional minimum-operations floor: the run
continues until the duration has elapsed and the floor is met.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import sys
import threading
import time
from dataclasses import dataclass

from .api import CapacityError, ConfigurationError, MIN_VERSIONED_SIZE, RegisterKind
from .api import RF_MAX_READERS, decode_versioned, encode_versioned
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
    """One workload configuration.

    ``min_ops`` keeps the run going past ``duration`` until the operation
    floor is met. ``switch_interval`` temporarily overrides the
    interpreter's thread switch interval to force finer interleaving.
    ``history_out`` names a file that a verified run saves its merged
    history to, before checking it, for ``History.load``.
    """

    algo: RegisterKind
    readers: int
    size: int
    duration: float
    mode: str = "hold"
    verify: bool = False
    seed: int = 0
    min_ops: int = 0
    switch_interval: float | None = None
    history_out: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if isinstance(self.algo, str):
            self.algo = RegisterKind.parse(self.algo)
        for name in ("readers", "size", "seed", "min_ops"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.verify, bool):
            raise ConfigurationError(f"verify must be a boolean, got {self.verify!r}")
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
        if self.history_out is not None and not self.verify:
            raise ConfigurationError("saving the history needs verify: nothing is recorded")
        if self.algo is RegisterKind.RF and self.readers > RF_MAX_READERS:
            raise CapacityError(
                f"RF admits at most {RF_MAX_READERS} readers, got {self.readers}"
            )


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
    __slots__ = ("stop", "errors")

    def __init__(self) -> None:
        self.stop = False
        self.errors: list[BaseException] = []


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
        handle.finish()


def _writer_loop(ctl, barrier, handle, cfg: BenchConfig, recorder) -> None:
    try:
        rng = random.Random(cfg.seed)
        template = bytearray(rng.randbytes(cfg.size))
        template[0:8] = (0).to_bytes(8, "little")
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
        violations=no_past + inversions + torn,
        no_past=no_past,
        inversions=inversions,
        torn_reads=torn,
    )


@dataclass
class MatrixSpec:
    """Cartesian sweep description: algos x reader counts x sizes."""

    algos: list[RegisterKind]
    readers: list[int]
    sizes: list[int]
    duration: float = 1.0
    mode: str = "hold"
    verify: bool = False
    seed: int = 0
    repeat: int = 1
    min_ops: int = 0

    @classmethod
    def from_json(cls, path) -> "MatrixSpec":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigurationError(f"matrix file {path} must hold a JSON object")
        try:  # a missing or unknown key is a TypeError of the constructor
            spec = cls(**raw)
        except TypeError as exc:
            raise ConfigurationError(f"matrix file {path}: {exc}") from None
        for name, (expected, check) in _MATRIX_TYPES.items():
            value = getattr(spec, name)
            if not check(value):
                raise ConfigurationError(
                    f"matrix file {path}: {name} must be {expected}, got {value!r}"
                )
        spec.algos = [RegisterKind.parse(a) for a in spec.algos]
        return spec


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is an int


def _is_positive_int_list(value) -> bool:
    return isinstance(value, list) and value and all(_is_int(v) and v > 0 for v in value)


# The JSON type each matrix-file field must have: (description, check).
_MATRIX_TYPES = {
    "algos": (
        "a non-empty list of strings",
        lambda v: isinstance(v, list) and v and all(isinstance(a, str) for a in v),
    ),
    "readers": ("a non-empty list of positive integers", _is_positive_int_list),
    "sizes": ("a non-empty list of positive integers", _is_positive_int_list),
    "duration": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "mode": ("a string", lambda v: isinstance(v, str)),
    "verify": ("a boolean", lambda v: isinstance(v, bool)),
    "seed": ("an integer", _is_int),
    "repeat": ("a positive integer", lambda v: _is_int(v) and v > 0),
    "min_ops": ("an integer", _is_int),
}


def run_matrix(spec: MatrixSpec, register_factory=make_register) -> list[BenchResult]:
    """Run the sweep, ``spec.repeat`` runs and rows per case; combinations
    beyond an algorithm's capacity are skipped with a note."""
    results = []
    for algo in spec.algos:
        for readers in spec.readers:
            for size in spec.sizes:
                try:
                    cfg = BenchConfig(
                        algo=algo,
                        readers=readers,
                        size=size,
                        duration=spec.duration,
                        mode=spec.mode,
                        verify=spec.verify,
                        seed=spec.seed,
                        min_ops=spec.min_ops,
                    )
                except CapacityError as exc:
                    log.warning("skipping %s at %d readers: %s", algo.name, readers, exc)
                    continue
                results.extend(run_bench(cfg, register_factory) for _ in range(spec.repeat))
    return results


def emit_csv(results, path) -> None:
    """Write results as CSV with the fixed column order."""
    if not results:
        raise ConfigurationError("no results to emit")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in results:
            fh.write(r.csv_row() + "\n")
