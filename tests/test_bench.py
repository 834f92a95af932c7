"""Benchmark driver: smoke runs, CSV contract, sweeps, CLI."""

import json
import logging

import pytest

from arcreg import (
    ArcRegister,
    BenchConfig,
    CSV_HEADER,
    CapacityError,
    ConfigurationError,
    History,
    RegisterKind,
    check_history,
    emit_csv,
    encode_versioned,
    load_sweep,
    run_bench,
)
from arcreg.arc import ArcWriter
from arcreg.cli import main as cli_main
from support import BrokenArcRegister, instrument, run_schedule


def test_smoke_hold_run_with_verification():
    cfg = BenchConfig(
        algo=RegisterKind.ARC, readers=1, size=4096, duration=0.4,
        mode="hold", verify=True,
    )
    result = run_bench(cfg)
    assert result.writes >= 1
    assert result.reads >= 1
    assert result.violations == 0
    assert result.throughput_ops_s > 0


def test_arc_runs_far_above_the_identified_reader_cap():
    # 129 threads oversubscribe the host; completing the run is the point.
    # Nothing gates writer progress at 128 readers: the acceptance suite's
    # 128-reader run (criterion 6) floors the total operations, which reads
    # alone can meet. In a run this short the writer may make no write,
    # since the start barrier can release it after the run has ended.
    cfg = BenchConfig(
        algo=RegisterKind.ARC, readers=128, size=4096, duration=1.2,
        mode="hold", switch_interval=0.0005,
    )
    result = run_bench(cfg)
    assert result.reads > 0
    assert result.violations == 0


def test_rf_config_beyond_capacity_is_rejected():
    with pytest.raises(CapacityError):
        BenchConfig(algo=RegisterKind.RF, readers=59, size=4096, duration=0.2)


def test_work_mode_records_and_checks():
    cfg = BenchConfig(
        algo=RegisterKind.ARC, readers=2, size=4096, duration=0.4,
        mode="work", verify=True,
    )
    result = run_bench(cfg)
    assert result.violations == 0
    assert result.torn_reads == 0


@pytest.mark.parametrize("mode", ["hold", "work"])
@pytest.mark.parametrize("algo", list(RegisterKind))
def test_every_handle_reads_the_last_write_after_the_run(algo, mode):
    cfg = BenchConfig(algo=algo, readers=2, size=4096, duration=0.1, mode=mode)
    result = run_bench(cfg)
    assert result.quiescent_misses == result.violations == 0


class DroppingArcWriter(ArcWriter):
    """Counts every write and publishes none."""

    def write(self, data) -> None:
        self._reg._fit(data)
        self.writes += 1


class DroppingArcRegister(ArcRegister):
    def _make_writer(self) -> DroppingArcWriter:
        return DroppingArcWriter(self)


@pytest.mark.parametrize("mode", ["hold", "work"])
def test_unverified_run_counts_handles_that_miss_the_last_write(mode):
    # Nothing is recorded without verify, so only the quiescent read after
    # the join can see that the writer dropped its writes.
    def dropping_factory(cfg):
        return DroppingArcRegister(encode_versioned(0, cfg.size), cfg.readers, cfg.size)

    cfg = BenchConfig(algo=RegisterKind.ARC, readers=3, size=4096, duration=0.2, mode=mode)
    for _ in range(5):  # the start barrier can release the writer too late to write
        result = run_bench(cfg, register_factory=dropping_factory)
        if result.writes:
            break
    assert result.writes > 0
    assert result.quiescent_misses == result.violations == cfg.readers


def test_min_ops_floor_extends_the_run():
    cfg = BenchConfig(
        algo=RegisterKind.ARC, readers=1, size=4096, duration=0.05,
        mode="hold", min_ops=50_000,
    )
    result = run_bench(cfg)
    assert result.total_ops >= 50_000


def test_csv_exact_format(tmp_path):
    cfg = BenchConfig(
        algo=RegisterKind.ARC, readers=1, size=4096, duration=0.2, mode="hold",
    )
    result = run_bench(cfg)
    path = tmp_path / "out.csv"
    emit_csv([result], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == (
        "algo,mode,readers,size_bytes,duration_s,reads,writes,"
        "read_rmw,write_rmw,throughput_ops_s,violations"
    )
    fields = lines[1].split(",")
    assert fields[0] == "ARC"
    assert fields[1] == "hold"
    assert fields[2] == "1"
    assert fields[3] == "4096"
    assert int(fields[5]) == result.reads
    assert int(fields[6]) == result.writes
    assert fields[10] == "0"


def test_emit_csv_refuses_empty_results(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_csv([], tmp_path / "out.csv")


def _sweep_file(tmp_path, **keys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(keys))
    return path


def test_matrix_cartesian_row_count(tmp_path):
    algos = ["arc", "rf", "peterson", "rwlock"]
    path = _sweep_file(tmp_path, algos=algos, readers=[2], sizes=[64, 256, 1024], duration=0.1)
    configs = load_sweep(path)
    assert [(c.algo, c.readers, c.size) for c in configs] == [
        (RegisterKind.parse(a), 2, size) for a in algos for size in (64, 256, 1024)
    ]
    assert {c.duration for c in configs} == {0.1}


def test_matrix_skips_rf_beyond_capacity_with_note(tmp_path, caplog):
    # Each algorithm is capped at its register's max_readers: RF at 58 and
    # ARC at 2**32 - 2. A case beyond it is skipped before any case runs.
    path = _sweep_file(tmp_path, algos=["arc", "rf"], readers=[64, 2**32 - 1], sizes=[64],
                       duration=0.1)
    with caplog.at_level(logging.WARNING, logger="arcreg.bench"):
        configs = load_sweep(path)
    assert [(c.algo, c.readers) for c in configs] == [(RegisterKind.ARC, 64)]
    for case in ("ARC at 4294967295", "RF at 64", "RF at 4294967295"):
        assert any(f"skipping {case} readers" in message for message in caplog.messages)


def test_matrix_spec_from_json(tmp_path):
    path = _sweep_file(tmp_path, algos=["arc", "rwlock"], readers=[1, 2], sizes=[64],
                       duration=0.1, mode="hold")
    configs = load_sweep(path)
    assert [(c.algo, c.readers) for c in configs] == [
        (RegisterKind.ARC, 1), (RegisterKind.ARC, 2),
        (RegisterKind.RWLOCK, 1), (RegisterKind.RWLOCK, 2),
    ]
    results = [run_bench(c) for c in configs]
    assert [(r.algo, r.readers) for r in results] == [(c.algo, c.readers) for c in configs]


def test_same_seed_schedule_replays_exactly():
    # One thread and one seed make the register deterministic: every op
    # count, word-counted RMW and probe, and the final state must repeat.
    def replay():
        reg = ArcRegister(encode_versioned(0, 64), 4, 64)
        meter = instrument(reg)
        costs = run_schedule(reg, meter, ops=5_000, write_every=3, seed=11)
        counts = (
            [h.reads for h in reg._readers], reg._writer.writes, reg.rmw_counters(),
            meter.sync.rmw, meter.sync.loads, meter.r_end.rmw, meter.r_end.loads,
        )
        state = (
            reg._current.load(),
            [(s.r_start, s.r_end.load(), s.value[1], bytes(s.content)) for s in reg._slots],
        )
        return costs, counts, state

    costs, counts, state = replay()
    assert counts[1] > 1000  # the schedule wrote
    assert replay() == (costs, counts, state)


def test_cli_single_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = cli_main([
        "--algo", "arc", "--readers", "1", "--size", "4096",
        "--duration", "0.2", "--csv", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER
    stdout = capsys.readouterr().out
    assert CSV_HEADER in stdout


def test_cli_verified_run_exit_code(tmp_path):
    rc = cli_main([
        "--algo", "arc", "--readers", "1", "--size", "4096",
        "--duration", "0.2", "--mode", "work", "--verify",
    ])
    assert rc == 0


def test_cli_rejects_bad_config(tmp_path):
    rc = cli_main(["--algo", "rf", "--readers", "99", "--duration", "0.1"])
    assert rc == 2
    assert cli_main(["--algo", "arc", "--duration", "0.1", "--repeat", "0"]) == 2
    # A malformed matrix file is a bad configuration too, not a failed run.
    malformed = [
        {"algos": ["arc"], "readers": [1], "sizes": [64], "threads": 4},  # unknown key
        {"algos": ["arc"], "readers": [1], "sizes": [64], "pin": True},  # a removed key
        {"algos": ["arc"], "readers": [1], "sizes": [64], "seed": 1},  # a removed key
        {"algos": ["arc"], "sizes": [64]},  # missing key
        [{"algos": ["arc"], "readers": [1], "sizes": [64]}],  # not an object
        {"algos": ["arc"], "readers": 1, "sizes": [64]},  # an int, not a list
        {"algos": "arc", "readers": [1], "sizes": [64]},  # a string, not a list
        {"algos": ["arc"], "readers": [0], "sizes": [64]},  # not positive
        {"algos": ["arc"], "readers": [1], "sizes": [True]},  # a bool, not an int
        {"algos": ["arc"], "readers": [1], "sizes": [64], "duration": "1"},
        {"algos": ["arc"], "readers": [1], "sizes": [64], "verify": 1},
        {"algos": ["arc"], "readers": [], "sizes": [64]},  # an empty axis
        {"algos": [], "readers": [1], "sizes": [64]},
        {"algos": ["arc"], "readers": [1], "sizes": [64], "repeat": 0},
        {"algos": ["arc"], "readers": [1], "sizes": [64], "duration": True},
        {"algos": [5], "readers": [1], "sizes": [64]},
        # BenchConfig fields that a sweep does not set
        {"algos": ["arc"], "readers": [1], "sizes": [64], "switch_interval": 0.001},
        {"algos": ["arc"], "readers": [1], "sizes": [64], "history_out": "h.txt"},
    ]
    path = tmp_path / "sweep.json"
    out = tmp_path / "out.csv"
    for sweep in malformed:
        path.write_text(json.dumps(sweep))
        with pytest.raises(ConfigurationError):
            load_sweep(path)
        assert cli_main(["--matrix", str(path)]) == 2
        assert cli_main(["--matrix", str(path), "--csv", str(out)]) == 2
    # The matrix file sets every run: a single-run flag beside it is refused,
    # not dropped, even when it repeats the default.
    path.write_text(json.dumps({"algos": ["arc"], "readers": [1], "sizes": [64],
                                "duration": 0.1}))
    for flag in (["--algo", "arc"], ["--readers", "2"], ["--size", "64"],
                 ["--duration", "0.1"], ["--mode", "work"], ["--verify"],
                 ["--repeat", "3"], ["--repeat", "1"], ["--min-ops", "5"]):
        assert cli_main(["--matrix", str(path), *flag]) == 2
        assert cli_main(["--matrix", str(path), "--csv", str(out), *flag]) == 2
    # A sweep whose every case is skipped ran nothing: a bad configuration.
    path.write_text(json.dumps({"algos": ["rf"], "readers": [64], "sizes": [4096]}))
    assert cli_main(["--matrix", str(path)]) == 2
    assert cli_main(["--matrix", str(path), "--csv", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_duration_must_be_positive_and_finite(duration, tmp_path):
    # A NaN or infinite duration never reaches the run's deadline; it is
    # refused before any thread starts.
    with pytest.raises(ConfigurationError, match="duration"):
        BenchConfig(algo=RegisterKind.ARC, readers=1, size=64, duration=duration)
    assert cli_main(["--algo", "arc", "--readers", "1", "--duration", str(duration)]) == 2
    # json.dump writes NaN and Infinity, and json.load parses them back.
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"algos": ["arc"], "readers": [1], "sizes": [64],
                                "duration": duration}))
    assert cli_main(["--matrix", str(path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("verify", "no"), ("verify", 1), ("readers", 2.5), ("readers", True), ("size", 4096.0),
    ("min_ops", -3), ("duration", True), ("algo", 5), ("algo", None),
    ("switch_interval", "x"), ("switch_interval", 0.0), ("switch_interval", float("nan")),
    ("history_out", 5),
])
def test_config_fields_are_type_checked(field, value):
    # verify="no" is truthy and would turn verification on; a bool is an int
    # to Python; a float reader count would fail only when the register is
    # built, with a TypeError. history_out=5 would be taken as file
    # descriptor 5, and a NaN switch interval aborts the interpreter.
    config = dict(algo=RegisterKind.ARC, readers=2, size=64, duration=0.1)
    with pytest.raises(ConfigurationError, match=field):
        BenchConfig(**{**config, field: value})


def test_negative_operation_floor_is_refused(tmp_path):
    argv = ["--algo", "arc", "--readers", "1", "--duration", "0.1", "--min-ops", "-3"]
    assert cli_main(argv) == 2
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"algos": ["arc"], "readers": [1], "sizes": [64], "min_ops": -3}))
    assert cli_main(["--matrix", str(path)]) == 2


def test_cli_matrix_mode(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "algos": ["arc"], "readers": [1], "sizes": [64], "duration": 0.1,
    }))
    out = tmp_path / "matrix.csv"
    rc = cli_main(["--matrix", str(sweep), "--csv", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


def test_repeat_gives_one_row_per_run(tmp_path, capsys):
    rc = cli_main([
        "--algo", "arc", "--readers", "1", "--size", "64", "--duration", "0.1",
        "--repeat", "2",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    path = _sweep_file(tmp_path, algos=["arc", "rf"], readers=[1], sizes=[64],
                       duration=0.1, repeat=2)
    assert [c.algo for c in load_sweep(path)] == [RegisterKind.ARC] * 2 + [RegisterKind.RF] * 2


def test_saved_history_rechecks_to_the_same_verdict(tmp_path):
    # The publish-before-copy mutant, so that the saved history holds
    # violations of every kind the run counts.
    def broken_factory(cfg):
        return BrokenArcRegister(encode_versioned(0, cfg.size), cfg.readers, cfg.size)

    path = tmp_path / "history.txt"
    cfg = BenchConfig(
        algo=RegisterKind.ARC, readers=4, size=4096, duration=0.5, mode="work",
        verify=True, switch_interval=0.0002, history_out=path,
    )
    for _ in range(5):
        result = run_bench(cfg, register_factory=broken_factory)
        if result.violations:
            break
    assert result.violations > 0
    history = History.load(path)
    assert len(history) == result.reads + result.writes
    report = check_history(history)
    assert (len(report.no_past), len(report.inversions), report.torn_reads) == (
        result.no_past, result.inversions, result.torn_reads,
    )


def test_cli_history_out_saves_exactly_one_verified_run(tmp_path, capsys):
    path = tmp_path / "history.txt"
    run = ["--algo", "arc", "--readers", "1", "--size", "64", "--duration", "0.1"]
    assert cli_main(run + ["--verify", "--history-out", str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    history = History.load(path)
    assert len(history) == int(row[5]) + int(row[6])  # reads + writes
    assert check_history(history).total_violations == 0
    path.unlink()
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"algos": ["arc"], "readers": [1], "sizes": [64],
                                 "duration": 0.1, "verify": True}))
    for rejected in (
        run + ["--history-out", str(path)],  # nothing recorded without --verify
        run + ["--verify", "--repeat", "2", "--history-out", str(path)],
        ["--matrix", str(sweep), "--history-out", str(path)],
    ):
        assert cli_main(rejected) == 2
        assert not path.exists()
