"""Repeat the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --seeds 10 [--workload NAME ...] [--trace 0|1] [--out FILE]

For every workload it runs ``perfbench/run.py`` once per seed and prints,
for each metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound.  With
``--out`` it also writes the summary, every value and a record of the
machine (``nproc``, CPU model, Python version) as JSON.  A before/after
comparison runs this on both commits with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary and raw values here as JSON")
    parser.add_argument("--label", default="", help="recorded in --out, e.g. the commit measured")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        summary[workload] = {"runs": len(results), "correct": sum(r["correct"] for r in results),
                             "metrics": {}}
        print(f"\n{workload}: {sum(r['correct'] for r in results)}/{len(results)} correct")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            summary[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:42s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}" + ("" if bound is None else f"  bound {bound}") + flag)
    if args.out:
        record = {"label": args.label, "machine": machine(), "seconds": args.seconds,
                  "trace": args.trace, "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
