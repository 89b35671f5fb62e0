"""The benchmark's workloads: fixed, exhaustive (family, r, n) ranges.

Each workload is a list of steps run through the package's public entry
points (``crystalchords.cli.main`` and the functions exported by
``crystalchords``).  A step returns its raw output, how many instances it
decided, and how many of its operations failed.  The canonical output is
hashed outside the timed region and compared with ``expected.json``.

Failure accounting does not trust truncated reports: ``verify`` keeps only
ten counterexamples and ``cli.main`` maps most exceptions to exit 2, so a
CLI step is one operation, failed when its exit code is nonzero or its
report says ``"ok": false`` / ``"holds": false``.  The growth round trip
counts one operation per tableau.
"""

from __future__ import annotations

import hashlib
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class StepResult:
    key: str  # names the canonical output; equal keys must give equal bytes
    instances: int
    attempted: int
    failed: int
    canonical: Callable[[], bytes]  # called after the clock stops
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical()).hexdigest()


class CliStep:
    """One ``crystalchords`` command line, checked against its known report."""

    def __init__(self, key: str, argv: list[str], verdict: str, count_field: str, count: int):
        self.key = key
        self.argv = argv
        self.name = " ".join(argv)
        self.verdict = verdict  # "ok" for verify, "holds" for csp
        self.count_field = count_field
        self.count = count

    def run(self) -> StepResult:
        from crystalchords import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, reported below
                code = "exception"
                err.write(traceback.format_exc())
        text = out.getvalue()
        problems = []
        if code != 0:
            problems.append(f"{self.name}: exit {code}: {err.getvalue().strip()[-500:]}")
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            report = {}
            problems.append(f"{self.name}: report is not a JSON object")
        if report.get(self.verdict) is not True:
            problems.append(f"{self.name}: {self.verdict} is {report.get(self.verdict)!r}")
        if report.get(self.count_field) != self.count:
            problems.append(
                f"{self.name}: {self.count_field} {report.get(self.count_field)!r}, expected {self.count}"
            )
        instances = report.get(self.count_field)
        return StepResult(
            key=self.key,
            instances=instances if isinstance(instances, int) else 0,
            attempted=1,
            failed=1 if problems else 0,
            canonical=lambda: text.encode("utf-8"),
            problems=problems,
        )


# the rule each family's growth diagram uses, as growth_inverse expects it
GROWTH_RULE = {"oscillating": "zero_one", "fan": "burge", "vacillating": "rsk"}


class RoundTripStep:
    """enumerate_zero, growth_matrix, growth_inverse; the steps must come back.

    ``growth_inverse`` infers the rank from the hypotenuse, so a tableau whose
    partitions never use all r rows returns with a smaller rank: compare
    ``.steps``, not whole tableaux.
    """

    def __init__(self, family: str, r: int, n: int, count: int):
        self.family, self.r, self.n, self.count = family, r, n, count
        self.key = f"growth-roundtrip {family} r={r} n={n}"
        self.name = self.key

    def run(self) -> StepResult:
        import crystalchords as cc

        items = cc.enumerate_zero(self.family, self.r, self.n)
        rule = GROWTH_RULE[self.family]
        records = []
        failed = 0
        problems = []
        for t in items:
            m, why = None, None
            try:
                m = cc.growth_matrix(self.family, t)
                triangle = [list(m[i][:i]) for i in range(1, len(m))]
                back = cc.growth_inverse(rule, triangle, self.family)
                if back.steps != t.steps:
                    why = f"came back as {back.steps}"
            except Exception as exc:  # a crash is a failed instance
                why = repr(exc)
            if why is not None:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{self.name}: {t.steps}: {why}")
            records.append((t.steps, m))
        if len(items) != self.count:
            problems.append(f"{self.name}: {len(items)} tableaux, expected {self.count}")
        return StepResult(
            key=self.key,
            instances=len(items),
            attempted=len(items),
            failed=failed,
            canonical=lambda: _records_bytes(records),
            problems=problems,
        )


def _records_bytes(records) -> bytes:
    lines = [json.dumps([[list(p) for p in steps], m], separators=(",", ":")) for steps, m in records]
    return "\n".join(lines).encode("utf-8")


def _verify(suite: str, count: int, jobs: int = 1) -> CliStep:
    # the key names the report, not the job count: --jobs N must give the
    # bytes of --jobs 1
    argv = ["verify", suite, "--deep", "--jobs", str(jobs)]
    return CliStep(f"verify {suite} --deep", argv, "ok", "instances", count)


def _csp(family: str, r: int, n: int, poly: str, count: int) -> CliStep:
    argv = ["csp", "--family", family, "--r", str(r), "--n", str(n), "--poly", poly]
    return CliStep(" ".join(argv), argv, "holds", "set_size", count)


WORKLOADS = {
    # the product's headline run: both routes on every --deep instance
    "verify-main-deep": [
        _verify("osc-main", 1795),
        _verify("fans-main", 492),
        _verify("vac-main", 120),
    ],
    # growth rules in both directions and enumeration at r=4; never promotes
    "growth-roundtrip": [
        RoundTripStep("oscillating", 4, 10, 944),
        RoundTripStep("fan", 4, 8, 1001),
        RoundTripStep("vacillating", 2, 10, 945),
    ],
    # energy, orbit decomposition and promotion through the embeddings
    "csp-sieve": [
        _csp("fan", 3, 10, "f", 4719),
        _csp("vac", 2, 10, "h", 945),
    ],
}

# Run once per run, after the timed passes: the --jobs 2 report must have the
# bytes of the --jobs 1 report (same key), and in a traced run it gives the
# process-pool figures.  It is not timed, because two busy processes on a
# shared 2-core host spread too widely to bound.
UNTIMED = {
    "verify-main-deep": [_verify("osc-main", 1795, jobs=2)],
}
