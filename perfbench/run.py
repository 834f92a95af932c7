"""Run arcreg benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload hold-4k-n16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn; its result line names each
metric ``<workload>/<metric>``.

Every operation is recorded and the history checked; the handles are read
once more after the stop (quiescent check), and a run whose writer barely
wrote fails. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer ones (``--trace 1``). The line before it holds the run's
provenance; a readable summary goes to standard error. The full report, and
for a traced run a sample of its spans, are written to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout holding this file,
never from elsewhere; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "arcreg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "switch_interval_s": sys.getswitchinterval(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "arcreg" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'arcreg'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import arcreg
    from perfbench import harness

    if Path(arcreg.__file__).resolve().parent != SRC / "arcreg":
        print(f"perfbench: arcreg was imported from {arcreg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected 'all' or one of {sorted(harness.WORKLOADS)}")
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    prov = provenance(args)
    OUT.mkdir(exist_ok=True)
    results = {name: run_one(harness, harness.WORKLOADS[name], args, prov, units) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_one(harness, wl, args, prov, units) -> dict:
    """Run one workload, print its summary to stderr and save its report."""
    stem = f"{wl.name}-s{args.seed}-t{args.trace}"
    spans_path = None
    if args.trace:
        spans_path = OUT / f"{stem}.spans.csv"
        spans_path.write_text("span,name,start_ns,end_ns,parent,op\n", encoding="ascii")
    run = harness.run_workload(wl, args.seed, args.seconds, bool(args.trace), spans_path=spans_path)

    log = sys.stderr
    print(f"{wl.name} seed={args.seed} trace={args.trace}: attempted={run.attempted} "
          f"failed={run.failed} failed_op_ratio={run.failed / run.attempted:.3g} ratio; "
          f"{run.kept[0]} of {run.kept[1]} segments uncontended", file=log)
    for problem in run.problems[:10]:
        print(f"  FAIL {problem}", file=log)
    for name, value in run.metrics.items():
        n = run.samples.get(name)
        print(f"  {name:28s} {value:14.6g} {units[name]}" + (f"  (n={n})" if n else ""), file=log)
    layers: dict[str, float] = {}
    for name, ns in run.self_ns.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + ns
    total = sum(layers.values())
    if total:
        print("  self time by layer (traced segments): " + ", ".join(
            f"{layer} {ns / total:.1%}" for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1])), file=log)

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in run.metrics.items()},
    }
    report = dict(result, provenance=dict(prov, workload=wl.name), problems=run.problems,
                  samples=run.samples, segments_kept=run.kept,
                  failed_op_ratio=run.failed / run.attempted, self_ns_by_span=run.self_ns,
                  self_share_by_layer={k: v / total for k, v in layers.items()} if total else {})
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
