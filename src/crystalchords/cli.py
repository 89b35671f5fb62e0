"""Command-line interface: enumeration, promotion, chord maps, growth, verification, CSP.

Exit codes: 0 success (or a holding CSP), 1 property/CSP failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import random
import sys

from . import __version__
from .crystals import (
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    enumerate_zero,
)
from .fixtures import golden_checks
from .growth import (
    _FAMILY_RULE,
    InvalidOutput,
    blocksum,
    blowup,
    cell_backward,
    cell_forward,
    growth_corners,
    growth_inverse,
    growth_matrix,
    lower_triangle_rows,
)
from .promotion import CHORD_MAPS, chord_matrix, promote, rotate_matrix
from .serialize import (
    dump_json,
    matrix_to_json,
    parse_tableau,
    render_chords,
    render_matrix,
    render_tableau,
    tableau_to_json,
)
from .sieving import csp_check, f_poly, g_poly, h_poly, poly_str
from .virtual import iota_f_to_o, iota_v_to_o
from .weights import is_partition, pad, trim

USAGE_ERROR = 2
CHECK_FAILED = 1

FAMILY_ALIASES = {
    "osc": OSCILLATING,
    "oscillating": OSCILLATING,
    "fan": FAN,
    "fans": FAN,
    "vac": VACILLATING,
    "vacillating": VACILLATING,
}

DEFAULT_MAP = {OSCILLATING: "M_O", FAN: "M_F", VACILLATING: "M_VO"}

SUITES = (
    "osc-main",
    "fans-main",
    "vac-main",
    "rotation",
    "order",
    "blowup-lemmas",
    "rule-inversion",
)


class UsageError(Exception):
    pass


def _family(name: str) -> str:
    try:
        return FAMILY_ALIASES[name]
    except KeyError:
        raise UsageError(f"unknown family {name!r}; use osc, fan or vac") from None


def _load_tableau(args) -> TableauSeq:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_tableau(json.load(fh))
    if not args.tableau:
        raise UsageError("provide --tableau or --input")
    family = _family(args.family) if args.family else None
    text = args.tableau.strip()
    if text.startswith("{"):
        return parse_tableau(json.loads(text))
    if family is None:
        raise UsageError("compact tableau form needs --family")
    rank = args.r or len(text.split(",")[0])
    return parse_tableau(text, family, rank)


def _emit_tableau(t: TableauSeq, fmt: str) -> str:
    if fmt == "json":
        return dump_json(tableau_to_json(t))
    return render_tableau(t)


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("CRYSTALCHORDS_JOBS", "1")))
    except ValueError:
        return 1


def _pool_map(fn, items, jobs):
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs)))


# ------------------------------------------------------------------ commands


def cmd_enumerate(args) -> int:
    family = _family(args.family)
    items = enumerate_zero(family, args.r, args.n)
    if args.count_only:
        print(len(items))
        return 0
    for t in items:
        print(_emit_tableau(t, args.format))
    return 0


def cmd_promote(args) -> int:
    t = _load_tableau(args)
    if args.orbit:
        rows = []
        cur = t
        for _ in range(len(t) + 1):
            rows.append(cur)
            cur = promote(cur)
        if args.format == "json":
            print(dump_json([tableau_to_json(x) for x in rows]))
        else:
            for x in rows:
                print(render_tableau(x))
        return 0
    cur = t
    for _ in range(args.steps):
        cur = promote(cur)
    print(_emit_tableau(cur, args.format))
    return 0


def cmd_chord(args) -> int:
    t = _load_tableau(args)
    tag = args.map or DEFAULT_MAP[t.family]
    m = chord_matrix(tag, t)
    if args.format == "json":
        print(dump_json({"map": tag, "matrix": matrix_to_json(m)}))
    else:
        print(render_matrix(m))
        print(render_chords(m))
    return 0


def cmd_growth(args) -> int:
    t = _load_tableau(args)
    m = growth_matrix(t.family, t)
    if args.round_trip:
        back = growth_inverse(_FAMILY_RULE[t.family], lower_triangle_rows(m), t.family)
        ok = back.steps == t.steps
        print(dump_json({"round_trip": ok}) if args.format == "json" else f"round trip: {ok}")
        return 0 if ok else CHECK_FAILED
    if args.corners:
        corners = growth_corners(t)
        n = len(t)
        if args.format == "json":
            rows = [
                [list(corners[(i, j)]) for j in range(i + 1)] for i in range(n + 1)
            ]
            print(dump_json({"corners": rows}))
        else:
            for i in range(n + 1):
                labels = []
                for j in range(i + 1):
                    p = pad(corners[(i, j)], t.rank)
                    labels.append("".join(str(x) for x in p))
                print(" ".join(labels))
        return 0
    if args.triangle:
        rows = lower_triangle_rows(m)
        if args.format == "json":
            print(dump_json({"triangle": [list(r) for r in rows]}))
        else:
            for row in rows:
                print(" ".join(str(x) for x in row))
        return 0
    if args.format == "json":
        print(dump_json({"matrix": matrix_to_json(m)}))
    else:
        print(render_matrix(m))
    return 0


def _scales(suite: str, args) -> list[tuple[str, int, int]]:
    """(family, r, n) triples covered by a verification suite."""
    deep = args.deep
    if suite == "osc-main":
        specs = [(OSCILLATING, 3, 10 if deep else 8)]
    elif suite == "fans-main":
        specs = [(FAN, 3, 8 if deep else 6)]
    elif suite == "vac-main":
        specs = [(VACILLATING, 3 if deep else 2, 7 if deep else 6)]
    else:  # rotation, order, blowup-lemmas run over everything
        specs = [
            (OSCILLATING, 3, 10 if deep else 8),
            (FAN, 3, 8 if deep else 6),
            (VACILLATING, 3 if deep else 2, 7 if deep else 6),
        ]
    if args.family:
        specs = [s for s in specs if s[0] == _family(args.family)]
    out = []
    for family, rmax, nmax in specs:
        rmax = min(rmax, args.r) if args.r else rmax
        nmax = min(nmax, args.n) if args.n else nmax
        for r in range(1, rmax + 1):
            for n in range(nmax + 1):
                out.append((family, r, n))
    return out


def _check_main(t: TableauSeq) -> str | None:
    if t.family == OSCILLATING:
        return None if growth_matrix(t.family, t) == chord_matrix("M_O", t) else "G_O != M_O"
    if t.family == FAN:
        return None if growth_matrix(t.family, t) == chord_matrix("M_F", t) else "G_F != M_F"
    g = growth_matrix(t.family, t)
    if g != chord_matrix("M_VO", t):
        return "G_V != M_VO"
    if g != chord_matrix("M_VF", t):
        return "G_V != M_VF"
    return None


def _check_rotation(t: TableauSeq) -> str | None:
    tags = {OSCILLATING: ["M_O"], FAN: ["M_F"], VACILLATING: ["M_VO", "M_VF"]}[t.family]
    for tag in tags:
        m = chord_matrix(tag, t)
        n = len(t)
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
            return f"{tag} not symmetric"
        if any(m[i][i] for i in range(n)):
            return f"{tag} has a nonzero diagonal"
        if chord_matrix(tag, promote(t)) != rotate_matrix(m):
            return f"{tag} does not intertwine promotion with rotation"
    if t.family == OSCILLATING:
        m = chord_matrix("M_O", t)
        if any(sum(row) != 1 for row in m) or any(sum(col) != 1 for col in zip(*m)):
            return "M_O is not a perfect matching"
    return None


def _check_order(t: TableauSeq) -> str | None:
    cur = t
    for _ in range(len(t)):
        cur = promote(cur)
    return None if cur == t else "pr^n != id"


def _check_blowup(t: TableauSeq) -> str | None:
    if t.family == FAN:
        m = chord_matrix("M_F", t)
        big = blowup("SE", m, t.rank)
        if big != chord_matrix("M_O", iota_f_to_o(t)):
            return "blowup_SE(M_F) != M_O(iota(F))"
        if blocksum(big, t.rank) != m:
            return "blocksum(blowup_SE) != id"
    elif t.family == VACILLATING:
        m = chord_matrix("M_VO", t)
        big = blowup("NE", m, 2)
        if big != chord_matrix("M_O", iota_v_to_o(t)):
            return "blowup_NE(M_VO) != M_O(iota(V))"
        if blocksum(big, 2) != m:
            return "blocksum(blowup_NE) != id"
    return None


def _exception_reason(exc: Exception) -> str:
    return f"exception: {type(exc).__name__}: {exc}"


def _guarded(check, t: TableauSeq) -> str | None:
    """Run a check; an exception it raises is a counterexample, not a usage error."""
    try:
        return check(t)
    except Exception as exc:  # any failure inside a check is reported with its instance
        return _exception_reason(exc)


_SUITE_CHECK = {
    "osc-main": _check_main,
    "fans-main": _check_main,
    "vac-main": _check_main,
    "rotation": _check_rotation,
    "order": _check_order,
    "blowup-lemmas": _check_blowup,
}


def _rule_inversion_failures(cases: int, seed: int = 20260811) -> list[dict]:
    rng = random.Random(seed)
    failures = []

    def rand_partition(maxlen=4, maxpart=4):
        parts = sorted((rng.randint(0, maxpart) for _ in range(rng.randint(0, maxlen))), reverse=True)
        return trim(tuple(parts))

    def grow(p, vertical: bool):
        q = list(pad(p, len(p) + 1))
        if vertical:
            for i in range(len(q)):
                if rng.random() < 0.5:
                    cand = q[:]
                    cand[i] += 1
                    if is_partition(cand):
                        q = cand
        else:
            row_cap = q[0] + rng.randint(0, 3)
            out = []
            for i in range(len(q)):
                hi = min(row_cap, q[i - 1] if i else q[i] + 3)
                out.append(rng.randint(q[i], max(q[i], hi)))
                row_cap = q[i]
            q = out
        return trim(tuple(q))

    def one_box(p):
        opts = [p]
        q = list(pad(p, len(p) + 1))
        for i in range(len(q)):
            cand = q[:]
            cand[i] += 1
            if is_partition(cand):
                opts.append(trim(tuple(cand)))
        return opts[rng.randrange(len(opts))]

    def check(rule, g, d, a, m):
        try:
            b = cell_forward(rule, g, d, a, m)
            if cell_backward(rule, b, d, a) == (g, m):
                return
            extra = {}
        except Exception as exc:  # a rule that raises on a generated cell is a counterexample
            extra = {"reason": _exception_reason(exc)}
        failures.append({"rule": rule, "gamma": list(g), "delta": list(d), "alpha": list(a), "m": m, **extra})

    per_rule = (cases + 2) // 3
    for _ in range(per_rule):
        g = rand_partition()
        d, a = one_box(g), one_box(g)
        m = rng.randint(0, 1) if d == g == a else 0
        check("zero_one", g, d, a, m)
        d, a = grow(g, True), grow(g, True)
        m = rng.randint(0, 3)
        check("burge", g, d, a, m)
        d, a = grow(g, False), grow(g, False)
        m = rng.randint(0, 3)
        check("rsk", g, d, a, m)
    return failures


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    jobs = args.jobs or _default_jobs()
    if suite == "rule-inversion":
        failures = _rule_inversion_failures(args.cases)
        report = {
            "suite": suite,
            "cases": args.cases,
            "ok": not failures,
            "counterexamples": failures[:10],
        }
        print(dump_json(report))
        return 0 if not failures else CHECK_FAILED
    # a partial of module-level functions, so --jobs N can pickle it
    check = functools.partial(_guarded, _SUITE_CHECK[suite])
    instances = 0
    failures = []
    for family, r, n in _scales(suite, args):
        items = enumerate_zero(family, r, n)
        instances += len(items)
        for t, res in zip(items, _pool_map(check, items, jobs)):
            if res is not None:
                failures.append({"family": family, "r": r, "tableau": render_tableau(t), "reason": res})
    report = {
        "suite": suite,
        "instances": instances,
        "ok": not failures,
        "counterexamples": failures[:10],
    }
    print(dump_json(report))
    return 0 if not failures else CHECK_FAILED


def cmd_csp(args) -> int:
    family = _family(args.family)
    n, r = args.n, args.r
    items = enumerate_zero(family, r, n)
    if args.poly == "f":
        poly = f_poly(family, r, n)
    elif args.poly == "g":
        if family != FAN:
            raise UsageError("--poly g applies to fans")
        if n % 2:
            raise UsageError("--poly g needs an even length")
        poly = g_poly(n // 2, r)
    elif args.poly == "h":
        if family != VACILLATING:
            raise UsageError("--poly h applies to vacillating tableaux")
        poly = h_poly(n, r)
    else:
        raise UsageError(f"unknown polynomial {args.poly!r}")
    report = csp_check(items, n, poly) if n else csp_check(items, 1, poly)
    payload = report.to_json()
    payload.update(
        {
            "family": family,
            "r": r,
            "n": n,
            "poly": args.poly,
            "poly_pretty": poly_str(poly),
            "set_size": len(items),
            "conjecture": bool(args.conjecture),
        }
    )
    print(dump_json(payload))
    if args.conjecture:
        return 0
    return 0 if report.holds else CHECK_FAILED


def cmd_golden(args) -> int:
    checks = golden_checks()
    if args.name:
        checks = [(name, ok) for name, ok in checks if name == args.name]
        if not checks:
            raise UsageError(f"unknown golden check {args.name!r}")
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += 0 if ok else 1
    return 0 if not failed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalchords",
        description="Chord diagrams for oscillating, fan and vacillating tableaux.",
    )
    parser.add_argument("--version", action="version", version=f"crystalchords {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tableau_args(p):
        p.add_argument("--family", help="osc, fan or vac")
        p.add_argument("--r", type=int, help="rank (inferred from compact input if omitted)")
        p.add_argument("--tableau", help='compact "000,111,..." or JSON tableau')
        p.add_argument("--input", help="path to a JSON tableau file")
        p.add_argument("--format", choices=("json", "ascii"), default="ascii")

    p = sub.add_parser("enumerate", help="list weight-zero tableaux")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("json", "ascii"), default="ascii")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("promote", help="apply promotion")
    add_tableau_args(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--orbit", action="store_true", help="print the full promotion orbit")
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser("chord", help="chord-diagram adjacency matrix")
    add_tableau_args(p)
    p.add_argument("--map", choices=CHORD_MAPS)
    p.set_defaults(func=cmd_chord)

    p = sub.add_parser("growth", help="growth-diagram matrix and round trips")
    add_tableau_args(p)
    p.add_argument("--round-trip", action="store_true")
    p.add_argument("--corners", action="store_true", help="print corner labels")
    p.add_argument(
        "--triangle", action="store_true", help="print the filling as triangle rows"
    )
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", help=", ".join(SUITES))
    p.add_argument("--family")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--cases", type=int, default=10000, help="rule-inversion sample size")
    p.add_argument("--deep", action="store_true", help="extend to the stretch ranges")
    p.add_argument("--jobs", type=int, help="parallel workers (default $CRYSTALCHORDS_JOBS)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("csp", help="cyclic sieving check")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", choices=("f", "g", "h"), required=True)
    p.add_argument(
        "--conjecture",
        action="store_true",
        help="record the outcome without failing the exit code",
    )
    p.set_defaults(func=cmd_csp)

    p = sub.add_parser("golden", help="replay the frozen worked examples")
    p.add_argument("--name", help="run a single named check")
    p.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, InvalidOutput, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
