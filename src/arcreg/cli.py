"""Command-line benchmark driver.

Single run:

    arcreg-bench --algo arc --readers 16 --size 131072 --duration 2 \
        --mode hold --verify --csv out.csv

Save the checked history of a single verified run for offline re-checks
with ``History.load`` and ``check_history``:

    arcreg-bench --algo arc --readers 2 --verify --history-out run.txt

Sweep from a JSON matrix file (refuses the single-run flags):

    arcreg-bench --matrix sweep.json --csv out.csv

Exits 1 if any verification violation occurred, 2 on a bad configuration
or a malformed matrix file, including a sweep whose every case is skipped.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .api import CapacityError, ConfigurationError
from .bench import BenchConfig, csv_text, emit_csv, load_sweep, run_bench


def _build_parser() -> argparse.ArgumentParser:
    # A flag that is not given is left out of the namespace: a single run
    # takes BenchConfig's default for it, and --matrix sees which were set.
    p = argparse.ArgumentParser(
        prog="arcreg-bench",
        description="Throughput benchmark for single-writer multi-reader registers.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--algo", help="ARC, RF, PETERSON, or RWLOCK")
    p.add_argument("--readers", type=int, help="reader thread count")
    p.add_argument("--size", type=int, help="register size in bytes (>= 8)")
    p.add_argument("--duration", type=float, help="seconds per run")
    p.add_argument("--mode", choices=("hold", "work"))
    p.add_argument("--verify", action="store_true", help="record and check the history")
    p.add_argument("--csv", metavar="PATH", help="write results as CSV")
    p.add_argument(
        "--history-out",
        metavar="PATH",
        help="with --verify, save the run's merged history (one run only)",
    )
    p.add_argument("--repeat", type=int, help="runs per configuration, one row each")
    p.add_argument("--matrix", metavar="FILE", help="JSON sweep description")
    p.add_argument("--min-ops", type=int, help="operation floor per run")
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    run = vars(_build_parser().parse_args(argv))
    csv, matrix = run.pop("csv", None), run.pop("matrix", None)
    try:
        if matrix is not None:
            if run:
                flags = " ".join("--" + name.replace("_", "-") for name in run)
                raise ConfigurationError(f"--matrix sets every run: drop {flags}")
            configs = load_sweep(matrix)
            if not configs:
                raise ConfigurationError(f"matrix file {matrix}: every case was skipped")
        else:
            repeat = run.pop("repeat", 1)
            if repeat < 1:
                raise ConfigurationError("repeat must be at least 1")
            if repeat > 1 and "history_out" in run:
                raise ConfigurationError("--history-out saves one run: drop --repeat")
            configs = [BenchConfig(**run)] * repeat
        results = [run_bench(cfg) for cfg in configs]
    except (ConfigurationError, CapacityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(csv_text(results), end="")
    if csv:
        try:
            emit_csv(results, csv)
        except OSError as exc:
            print(f"error: cannot write {csv}: {exc}", file=sys.stderr)
            return 2
    violations = sum(r.violations for r in results)
    if violations:
        print(f"verification FAILED: {violations} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
