"""Command-line benchmark driver.

Single run:

    arcreg-bench --algo arc --readers 16 --size 131072 --duration 2 \
        --mode hold --verify --csv out.csv

Save the checked history of a single verified run for offline re-checks
with ``History.load`` and ``check_history``:

    arcreg-bench --algo arc --readers 2 --verify --history-out run.txt

Sweep from a JSON matrix file (overrides the single-run flags):

    arcreg-bench --matrix sweep.json --csv out.csv

Exits 1 if any verification violation occurred, 2 on a bad configuration
or a malformed matrix file, including a sweep whose every case is skipped.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .api import CapacityError, ConfigurationError, RegisterKind
from .bench import BenchConfig, CSV_HEADER, MatrixSpec, emit_csv, run_bench, run_matrix


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arcreg-bench",
        description="Throughput benchmark for single-writer multi-reader registers.",
    )
    p.add_argument("--algo", default="ARC", help="ARC, RF, PETERSON, or RWLOCK")
    p.add_argument("--readers", type=int, default=4, help="reader thread count")
    p.add_argument("--size", type=int, default=4096, help="register size in bytes (>= 8)")
    p.add_argument("--duration", type=float, default=1.0, help="seconds per run")
    p.add_argument("--mode", choices=("hold", "work"), default="hold")
    p.add_argument("--verify", action="store_true", help="record and check the history")
    p.add_argument("--seed", type=int, default=0, help="workload content seed")
    p.add_argument("--csv", metavar="PATH", default=None, help="write results as CSV")
    p.add_argument(
        "--history-out",
        metavar="PATH",
        default=None,
        help="with --verify, save the run's merged history (one run only)",
    )
    p.add_argument("--repeat", type=int, default=1, help="runs per configuration, one row each")
    p.add_argument("--matrix", metavar="FILE", default=None, help="JSON sweep description")
    p.add_argument("--min-ops", type=int, default=0, help="operation floor per run")
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.history_out is not None and (args.matrix or args.repeat > 1):
            raise ConfigurationError("--history-out saves one run: drop --matrix and --repeat")
        if args.matrix:
            spec = MatrixSpec.from_json(args.matrix)
            results = run_matrix(spec)
            if not results:
                raise ConfigurationError(f"matrix file {args.matrix}: every case was skipped")
        else:
            cfg = BenchConfig(
                algo=RegisterKind.parse(args.algo),
                readers=args.readers,
                size=args.size,
                duration=args.duration,
                mode=args.mode,
                verify=args.verify,
                seed=args.seed,
                min_ops=args.min_ops,
                history_out=args.history_out,
            )
            if args.repeat < 1:
                raise ConfigurationError("repeat must be at least 1")
            results = [run_bench(cfg) for _ in range(args.repeat)]
    except (ConfigurationError, CapacityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(CSV_HEADER)
    for r in results:
        print(r.csv_row())
    if args.csv:
        try:
            emit_csv(results, args.csv)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 2
    violations = sum(r.violations for r in results)
    if violations:
        print(f"verification FAILED: {violations} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
