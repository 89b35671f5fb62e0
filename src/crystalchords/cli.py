"""Command-line interface: enumeration, promotion, chord maps, growth, verification, CSP.

Exit codes: 0 success (or a holding CSP), 1 property/CSP failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import __version__
from .crystals import (
    FAMILIES,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    _blocks,
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
    parse_tableau,
    render_chords,
    render_matrix,
    render_partition,
    render_tableau,
    tableau_to_json,
)
from .sieving import csp_check, energy_poly, g_poly, major_poly, poly_str
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

# the chord maps of each family, its default first
FAMILY_MAPS = {f: tuple(tag for tag, g in CHORD_MAPS.items() if g == f) for f in FAMILIES}

class UsageError(Exception):
    pass


def _family(name: str) -> str:
    try:
        return FAMILY_ALIASES[name]
    except KeyError:
        raise UsageError(f"unknown family {name!r}; use osc, fan or vac") from None


def _load_tableau(args) -> TableauSeq:
    family = _family(args.family) if args.family else None
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            t = parse_tableau(json.load(fh))
    elif not args.tableau:
        raise UsageError("provide --tableau or --input")
    elif args.tableau.strip().startswith("{"):
        t = parse_tableau(json.loads(args.tableau))
    elif family is None:
        raise UsageError("compact tableau form needs --family")
    else:
        text = args.tableau.strip()
        rank = args.r if args.r is not None else len(text.split(",")[0])
        return parse_tableau(text, family, rank)
    # a JSON tableau names its own family and rank; the options may only agree
    if family is not None and family != t.family:
        raise UsageError(f"--family {args.family} contradicts the tableau's family {t.family}")
    if args.r is not None and args.r != t.rank:
        raise UsageError(f"--r {args.r} contradicts the tableau's rank {t.rank}")
    return t


def _emit_tableau(t: TableauSeq, fmt: str) -> str:
    if fmt == "json":
        return dump_json(tableau_to_json(t))
    return render_tableau(t)


def _pool_map(fn, items, jobs):
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    # imported here: only --jobs above 1 pays for it
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs)))


# ------------------------------------------------------------------ commands


def cmd_enumerate(args) -> int:
    family = _family(args.family)
    if args.count_only:
        # each block's tails are its tableaux, so none is built to be counted
        print(sum(len(tails) for _, tails in _blocks(family, args.r, args.n)))
        return 0
    for t in enumerate_zero(family, args.r, args.n):
        print(_emit_tableau(t, args.format))
    return 0


def cmd_promote(args) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be at least 0")
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
    tag = args.map or FAMILY_MAPS[t.family][0]
    m = chord_matrix(tag, t)
    if args.format == "json":
        print(dump_json({"map": tag, "matrix": m}))
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
        rows = growth_corners(t)
        if args.format == "json":
            print(dump_json({"corners": rows}))
        else:
            for row in rows:
                print(" ".join(render_partition(p, t.rank) for p in row))
        return 0
    if args.triangle:
        rows = lower_triangle_rows(m)
        if args.format == "json":
            print(dump_json({"triangle": rows}))
        else:
            for row in rows:
                print(" ".join(str(x) for x in row))
        return 0
    if args.format == "json":
        print(dump_json({"matrix": m}))
    else:
        print(render_matrix(m))
    return 0


# plain and --deep (max rank, max length) of each family
VERIFY_RANGES = {
    OSCILLATING: ((3, 8), (3, 10)),
    FAN: ((3, 6), (3, 8)),
    VACILLATING: ((2, 6), (3, 7)),
}


def _scales(suite: str, args) -> list[tuple[str, int, int]]:
    """(family, r, n) triples covered by a verification suite."""
    families = _SUITE_TABLE[suite][0]
    if args.family:
        families = [f for f in families if f == _family(args.family)]
    out = []
    for family in families:
        plain, deep = VERIFY_RANGES[family]
        rmax, nmax = deep if args.deep else plain
        rmax = min(rmax, args.r) if args.r is not None else rmax
        nmax = min(nmax, args.n) if args.n is not None else nmax
        for r in range(1, rmax + 1):
            for n in range(nmax + 1):
                out.append((family, r, n))
    return out


def _check_main(t: TableauSeq) -> str | None:
    g = growth_matrix(t.family, t)
    for tag in FAMILY_MAPS[t.family]:
        if g != chord_matrix(tag, t):
            # G_O, G_F, G_V: the growth route of the family
            return f"G_{t.family[0].upper()} != {tag}"
    return None


def _check_rotation(t: TableauSeq) -> str | None:
    n = len(t)
    promoted = promote(t)
    for tag in FAMILY_MAPS[t.family]:
        m = chord_matrix(tag, t)
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
            return f"{tag} not symmetric"
        if any(m[i][i] for i in range(n)):
            return f"{tag} has a nonzero diagonal"
        if chord_matrix(tag, promoted) != rotate_matrix(m):
            return f"{tag} does not intertwine promotion with rotation"
    if t.family == OSCILLATING:  # m is M_O, the only oscillating map
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


# each per-tableau suite: the families it checks, in report order, and its check
_SUITE_TABLE = {
    "osc-main": ((OSCILLATING,), _check_main),
    "fans-main": ((FAN,), _check_main),
    "vac-main": ((VACILLATING,), _check_main),
    "rotation": (FAMILIES, _check_rotation),
    "order": (FAMILIES, _check_order),
    "blowup-lemmas": (FAMILIES, _check_blowup),
}
# rule-inversion samples growth cells, not tableaux, so it has no per-tableau check
SUITES = (*_SUITE_TABLE, "rule-inversion")


def rule_inversion_cells(cases: int, seed: int):
    """The first ``cases`` random growth cells (rule, gamma, delta, alpha, m):
    zero_one, burge, rsk in turn."""
    from itertools import islice

    rng = random.Random(seed)

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

    def cells():
        while True:
            g = rand_partition()
            d, a = one_box(g), one_box(g)
            yield "zero_one", g, d, a, rng.randint(0, 1) if d == g == a else 0
            d, a = grow(g, True), grow(g, True)
            yield "burge", g, d, a, rng.randint(0, 3)
            d, a = grow(g, False), grow(g, False)
            yield "rsk", g, d, a, rng.randint(0, 3)

    return islice(cells(), cases)


def _rule_inversion_failures(cases: int, seed: int = 20260811) -> list[dict]:
    failures = []
    for rule, g, d, a, m in rule_inversion_cells(cases, seed):
        try:
            b = cell_forward(rule, g, d, a, m)
            if cell_backward(rule, b, d, a) == (g, m):
                continue
            extra = {}
        except Exception as exc:  # a rule that raises on a generated cell is a counterexample
            extra = {"reason": _exception_reason(exc)}
        failures.append({"rule": rule, "gamma": list(g), "delta": list(d), "alpha": list(a), "m": m, **extra})
    return failures


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    bounds = (("--r", args.r, 1), ("--n", args.n, 0), ("--cases", args.cases, 1), ("--jobs", args.jobs, 1))
    for flag, value, least in bounds:
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}")
    if suite == "rule-inversion":
        return _report(suite, "cases", args.cases, _rule_inversion_failures(args.cases))
    scales = _scales(suite, args)
    if not scales:
        raise UsageError(f"suite {suite!r} checks no {_family(args.family)} tableaux")
    # every scale in one list, so a run opens at most one pool
    items = [t for family, r, n in scales for t in enumerate_zero(family, r, n)]
    # a partial of module-level functions, so --jobs N can pickle it
    check = functools.partial(_guarded, _SUITE_TABLE[suite][1])
    failures = [
        {"family": t.family, "r": t.rank, "tableau": render_tableau(t), "reason": res}
        for t, res in zip(items, _pool_map(check, items, args.jobs))
        if res is not None
    ]
    return _report(suite, "instances", len(items), failures)


def _report(suite: str, size_name: str, size: int, failures: list[dict]) -> int:
    """Print a suite's report, which names its size (cases or instances), and return the exit code."""
    report = {"suite": suite, size_name: size, "ok": not failures, "counterexamples": failures[:10]}
    print(dump_json(report))
    return 0 if not failures else CHECK_FAILED


def cmd_csp(args) -> int:
    family = _family(args.family)
    n, r = args.n, args.r
    items = enumerate_zero(family, r, n)
    if args.poly == "f":
        poly = energy_poly(family, r, n, items)
    elif args.poly == "g":
        if family != FAN:
            raise UsageError("--poly g applies to fans")
        if n % 2:
            raise UsageError("--poly g needs an even length")
        poly = g_poly(n // 2, r)
    else:  # "h", the last of the parser's choices
        if family != VACILLATING:
            raise UsageError("--poly h applies to vacillating tableaux")
        poly = major_poly(items)
    order = n or 1
    try:
        payload = csp_check(items, order, poly).to_json()
    except Exception as exc:  # an exception inside the sieve check is a failed check
        payload = {"holds": False, "order": order, "reason": _exception_reason(exc)}
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
    return 0 if payload["holds"] else CHECK_FAILED


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

    p = sub.add_parser("promote", help="apply promotion")
    add_tableau_args(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--orbit", action="store_true", help="print the full promotion orbit")

    p = sub.add_parser("chord", help="chord-diagram adjacency matrix")
    add_tableau_args(p)
    p.add_argument("--map", choices=CHORD_MAPS)

    p = sub.add_parser("growth", help="growth-diagram matrix and round trips")
    add_tableau_args(p)
    p.add_argument("--round-trip", action="store_true")
    p.add_argument("--corners", action="store_true", help="print corner labels")
    p.add_argument(
        "--triangle", action="store_true", help="print the filling as triangle rows"
    )

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", help=", ".join(SUITES))
    p.add_argument("--family")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--cases", type=int, default=10000, help="rule-inversion sample size")
    p.add_argument("--deep", action="store_true", help="extend to the stretch ranges")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")

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

    p = sub.add_parser("golden", help="replay the frozen worked examples")
    p.add_argument("--name", help="run a single named check")

    return parser


# each subcommand's function, looked up by name at every call
COMMANDS = {
    "enumerate": cmd_enumerate,
    "promote": cmd_promote,
    "chord": cmd_chord,
    "growth": cmd_growth,
    "verify": cmd_verify,
    "csp": cmd_csp,
    "golden": cmd_golden,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of :func:`main` in this process.

    Building a parser takes about 1 ms and leaves argparse objects in
    reference cycles, so repeated in-process calls share it.  It holds no
    command function, only the command's name.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, InvalidOutput, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
