"""Benchmark for crystalchords: exhaustive verdicts end to end, traced spans per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-main-deep --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  One run repeats full passes of the workload for about
``--seconds`` seconds (at least one pass) and checks every verdict, count
and output digest.  With ``--trace 0`` it reports the end-to-end metrics
listed in ``BENCHMARK.json``: medians over the passes, and set-up time as the
median of several fresh interpreters.  With ``--trace 1`` it runs one pass
untraced, installs the wrappers from ``spans.py`` and reports the per-layer
metrics of the traced passes.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Diagnostics,
including every step's digest, go to standard error.

The workloads are exhaustive over fixed ranges, so ``--seed`` only fixes
the order in which a workload's steps run; outputs and digests do not
depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Set-up time is the median of up to SETUP_BATCHES batches of SETUP_BATCH fresh
# interpreters, one batch before the first pass and one after each pass, so
# that it samples more than one moment of a noisy host.
SETUP_BATCH = 5
SETUP_BATCHES = 3
SETUP_CODE = "import crystalchords, crystalchords.cli as cli; cli.build_parser()"


def cpu_seconds() -> float:
    """User and system time of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


class SetupTimer:
    """Wall time of a fresh interpreter through import and build_parser()."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self._launch()  # writes the bytecode cache on a fresh checkout

    def _launch(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=self.env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - t0

    def batch(self) -> None:
        if len(self.samples) < SETUP_BATCH * SETUP_BATCHES:
            self.samples += [self._launch() for _ in range(SETUP_BATCH)]


class Pass:
    """One timed run of every step; outputs are hashed after the clock stops."""

    def __init__(self, workload: str | None, steps, expected: dict):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        results = [step.run() for step in steps]
        self.wall = time.perf_counter() - t0
        self.cpu = cpu_seconds() - cpu0
        self.digests = {r.key: r.digest() for r in results}
        self.problems = [msg for r in results for msg in r.problems]
        self.problems += check_digests(workload, self.digests, expected)
        self.instances = sum(r.instances for r in results)
        self.attempted = sum(r.attempted for r in results)
        # a step whose output changed has failed at least once, whatever its verdict
        self.failed = sum(
            max(r.failed, 1) if self.digests[r.key] != expected["steps"].get(r.key) else r.failed
            for r in results
        )


def workload_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{k}\t{digests[k]}\n" for k in sorted(digests))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def check_digests(workload: str | None, digests: dict[str, str], expected: dict) -> list[str]:
    """Compare each step's digest and the workload digest with expected.json."""
    problems = []
    for key, d in digests.items():
        want = expected["steps"].get(key)
        if want != d:
            problems.append(f"{key}: digest {d}, expected {want}")
    if workload is None:  # untimed steps have step digests only
        return problems
    whole = workload_digest(digests)
    want = expected["workloads"].get(workload)
    if want != whole:
        problems.append(f"workload digest {whole}, expected {want}")
    return problems


def measure(make_pass, seconds: float, after=lambda p: None) -> list[Pass]:
    """Passes until the next one would take the total past ``seconds``; at least one."""
    passes = []
    while True:
        p = make_pass()
        passes.append(p)
        after(p)
        walls = [q.wall for q in passes]
        if sum(walls) + statistics.median(walls) > seconds:
            return passes


def end_to_end(passes: list[Pass], untimed: Pass, setup_s: float) -> dict[str, float]:
    failed = sum(p.failed for p in passes + [untimed])
    attempted = sum(p.attempted for p in passes + [untimed])
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "instances_per_s": statistics.median(p.instances / p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }


CHORD_MAPS = ("M_O", "M_F", "M_VO", "M_VF")


def layer_snapshot(tracer, instances: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (percentiles are pooled later)."""
    c, s = tracer.calls, tracer.self_s
    verify_s = sum(tracer.durations.get("cli.verify", ()))
    out = {
        "crystals.enumerate_zero.self_s": s["crystals.enumerate_zero"],
        "crystals.validate_tableau.calls": c["crystals.validate_tableau"],
        "crystals.validate_tableau.per_instance": c["crystals.validate_tableau"] / max(instances, 1),
        "weights.pad.calls": c["weights.pad"],
        "weights.trim.calls": c["weights.trim"],
        "weights.partition.calls": c["weights.partition"],
        "weights.dominant_representative.calls": c["weights.dominant_representative"],
        "virtual.iota.calls": c["virtual.iota"],
        "virtual.iota.self_s": s["virtual.iota"],
        "promotion.promote.calls": c["promotion.promote"],
        "promotion.promote.self_s": s["promotion.promote"],
        "growth.growth_matrix.self_s": s["growth.growth_matrix"],
        "growth.growth_inverse.self_s": s["growth.growth_inverse"],
        "growth.cell_backward.calls": c["growth.cell_backward"],
        "growth.cell_forward.calls": c["growth.cell_forward"],
        "sieving.energy.calls": c["sieving.energy"],
        "sieving.energy.self_s": s["sieving.energy"],
        "sieving.orbit_decomposition.self_s": s["sieving.orbit_decomposition"],
        "cli.verify.parent_s": verify_s - tracer.pool_wait_s,
        "cli.verify.pool_wait_s": tracer.pool_wait_s,
    }
    for tag in CHORD_MAPS:
        out[f"promotion.chord_matrix.{tag}.self_s"] = s[f"promotion.chord_matrix.{tag}"]
    return out


def percentile_ms(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def per_layer(snapshots, durations, traced_walls, untraced_walls) -> dict[str, float]:
    out = {k: statistics.median(snap[k] for snap in snapshots) for k in snapshots[0]}
    for span in [f"promotion.chord_matrix.{tag}" for tag in CHORD_MAPS] + ["growth.growth_matrix"]:
        out[f"{span}.p50_ms"] = percentile_ms(durations.get(span, []), 50)
        out[f"{span}.p99_ms"] = percentile_ms(durations.get(span, []), 99)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "crystalchords" / "__init__.py").is_file():
        print(f"error: no crystalchords package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crystalchords

    if Path(crystalchords.__file__).resolve().parent != SRC / "crystalchords":
        print(f"error: imported crystalchords from {crystalchords.__file__}", file=sys.stderr)
        return 2
    import spans
    from workloads import UNTIMED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    steps = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(steps)
    print(f"steps: {[s.name for s in steps]}", file=sys.stderr)

    def make_pass() -> Pass:
        return Pass(args.workload, steps, expected)

    if args.trace:
        untraced = [make_pass()]
        tracer = spans.Tracer()
        for warning in spans.install(tracer):
            print(f"trace: {warning}", file=sys.stderr)
        snapshots, durations = [], {}

        def record(p: Pass) -> None:
            snapshots.append(layer_snapshot(tracer, p.instances))
            for span, values in tracer.durations.items():
                durations.setdefault(span, []).extend(values)
            tracer.clear()

        tracer.clear()
        traced = measure(make_pass, args.seconds - untraced[0].wall, after=record)
        untimed = Pass(None, UNTIMED.get(args.workload, []), expected)
        pool = layer_snapshot(tracer, untimed.instances)
        passes = untraced + traced
    else:
        setup = SetupTimer()
        setup.batch()
        passes = measure(make_pass, args.seconds, after=lambda p: setup.batch())
        untimed = Pass(None, UNTIMED.get(args.workload, []), expected)

    for i, p in enumerate(passes):
        print(f"pass {i}: wall={p.wall:.4f}s cpu={p.cpu:.4f}s", file=sys.stderr)
    for key, d in sorted(passes[0].digests.items()):
        print(f"digest {key!r} {d}", file=sys.stderr)
    print(f"digest workload {args.workload!r} {workload_digest(passes[0].digests)}", file=sys.stderr)
    problems = list(dict.fromkeys(msg for p in passes + [untimed] for msg in p.problems))
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)

    if args.trace:
        for name in snapshots[0]:
            if name.endswith(".calls") and len({snap[name] for snap in snapshots}) > 1:
                print(f"note: {name} differs between traced passes", file=sys.stderr)
        values = per_layer(snapshots, durations, [p.wall for p in traced], [untraced[0].wall])
        # the pool figures come from the untimed --jobs 2 step alone
        for name in ("cli.verify.parent_s", "cli.verify.pool_wait_s"):
            values[name] = pool[name]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, untimed, statistics.median(setup.samples))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes + [untimed]),
        "failed": sum(p.failed for p in passes + [untimed]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
