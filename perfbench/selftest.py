"""Self-tests of the benchmark: it passes the real register and fails broken ones.

Run them with ``python -m pytest perfbench/selftest.py``. The file is not
named ``test_*.py`` so that the repository's own test run does not collect
it: these runs leave the interpreter in a state that makes the timing tests
that follow them in the same process swing further.
"""

import json
from pathlib import Path

from arcreg import ArcRegister

from perfbench import harness

HOLD = harness.WORKLOADS["hold-4k-n16"]


class _OneBehindReader:
    """Returns what the previous read returned: a register that serves stale values."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._held = None

    def read(self):
        buf, size = self._inner.read()
        held, self._held = self._held, bytes(buf[:size])
        return (held if held is not None else self._held), size


class OneBehindRegister(ArcRegister):
    def new_reader(self):
        return _OneBehindReader(super().new_reader())


class _DroppingWriter:
    def write(self, data) -> None:
        pass


class LostWritesRegister(ArcRegister):
    """Accepts every write and publishes none of them."""

    def writer(self):
        super().writer()
        return _DroppingWriter()


def test_correct_register_passes_with_every_end_to_end_metric():
    run = harness.run_workload(HOLD, seed=1, seconds=0.5, trace=False)
    assert run.problems == []
    assert run.correct and run.attempted > 1000
    assert set(run.metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in run.metrics.values())


def test_stale_reads_drive_failed_op_ratio_above_zero():
    run = harness.run_workload(HOLD, seed=1, seconds=0.5, trace=False, make_register=OneBehindRegister)
    assert not run.correct
    assert run.failed / run.attempted > 0
    assert any("stale/future reads" in p for p in run.problems)


def test_unpublished_writes_trip_the_progress_guard_and_hide_throughput():
    run = harness.run_workload(HOLD, seed=1, seconds=0.5, trace=False, make_register=LostWritesRegister)
    assert run.failed / run.attempted > 0
    assert any("no read ever returned a new value" in p for p in run.problems)
    assert any("missed the last write" in p for p in run.problems)
    assert "read_ops_per_s" not in run.metrics and "write_ops_per_s" not in run.metrics


def test_traced_churn_reports_every_per_layer_metric():
    run = harness.run_workload(harness.WORKLOADS["churn-4k-n31"], seed=1, seconds=1.0, trace=True)
    assert run.correct, run.problems
    assert set(run.metrics) == set(harness.PER_LAYER)
    assert run.metrics["arc.switch_ratio"] > 0.5
    assert run.metrics["api.busy_share"] == 0
    assert run.metrics["atomics.write_rmw_per_op"] == 1


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
