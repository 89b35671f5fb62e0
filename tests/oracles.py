"""Reference definitions the library's fast paths are tested against.

Each oracle is the plain statement of a definition, kept here because
nothing in the library needs it once the fast path exists.
"""

from __future__ import annotations

from types import SimpleNamespace

from crystalchords.crystals import FAMILIES, FAN, OSCILLATING, RAISE, SPIN, Word, tensor_apply
from crystalchords.growth import blocksum
from crystalchords.promotion import PromotionGrid, local_rule
from crystalchords.virtual import iota_v_to_f, iota_v_to_o
from crystalchords.weights import is_partition, pad, step_classify, trim, vec_add, vec_sub


def fill_value(rule: str, lam, kap, nu) -> int:
    """Number of negative entries of kappa + nu - lambda (osc: capped at one)."""
    n = max(len(lam), len(kap), len(nu))
    diff = vec_add(pad(kap, n), vec_sub(pad(nu, n), pad(lam, n)))
    negatives = sum(1 for x in diff if x < 0)
    if rule == "osc":
        return 1 if negatives else 0
    if rule == "fan":
        return negatives
    raise ValueError(f"unknown filling rule {rule!r}")


def promote_steps(steps, r: int):
    """One local-rule promotion sweep, padding and trimming at every cell."""
    n = len(steps) - 1
    if n == 0:
        return steps
    out = [()]
    for j in range(1, n):
        out.append(trim(local_rule(pad(steps[j], r), pad(out[j - 1], r), pad(steps[j + 1], r))))
    out.append(())
    return tuple(out)


def promotion_grid(t) -> PromotionGrid:
    """Rows pr^0(T)..pr^(n-1)(T) of an oscillating or fan tableau, each one validated."""
    rows = []
    steps = t.steps
    for _ in range(len(t)):
        rows.append(steps)
        steps = promote_steps(steps, t.rank)
        validate_tableau(SimpleNamespace(family=t.family, rank=t.rank, steps=steps))
    return PromotionGrid(len(t), t.rank, tuple(rows))


def promotion_fill(t, rule: str):
    """The promotion-matrix filling read cell by cell off the promotion grid."""
    grid = promotion_grid(t)
    n = grid.length
    return tuple(
        tuple(
            fill_value(
                rule,
                grid.entry(i - 1, j - 1),
                grid.entry(i, j - 1),
                grid.entry(i - 1, j),
            )
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def chord_matrix(tag: str, t):
    """The chord maps defined through the two-pass promotion filling."""
    if tag == "M_O":
        return promotion_fill(t, "osc")
    if tag == "M_F":
        return promotion_fill(t, "fan")
    if tag == "M_VO":
        return blocksum(promotion_fill(iota_v_to_o(t), "osc"), 2)
    if tag == "M_VF":
        raw = blocksum(promotion_fill(iota_v_to_f(t), "fan"), 2)
        shift = 2 * (t.rank - 1)
        return tuple(
            tuple(x - shift if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(raw)
        )
    raise ValueError(f"unknown chord map {tag!r}")


def validate_tableau(t) -> None:
    """Tableau validation that classifies every step with ``step_classify``."""
    if t.family not in FAMILIES:
        raise ValueError(f"unknown family {t.family!r}")
    if t.rank < 1:
        raise ValueError("rank must be positive")
    if not t.steps or t.steps[0] != ():
        raise ValueError("step sequence must start at the empty partition")
    for p in t.steps:
        if not (isinstance(p, tuple) and is_partition(p) and trim(p) == p):
            raise ValueError(f"{p!r} is not a canonical partition")
        if len(p) > t.rank:
            raise ValueError(f"{p} has more than {t.rank} parts")
    for p, q in zip(t.steps, t.steps[1:]):
        kind, _ = step_classify(p, q)
        if t.family == OSCILLATING:
            if kind not in ("add_box", "remove_box"):
                raise ValueError(f"oscillating step {p} -> {q} must add or remove one box")
        elif t.family == FAN:
            diff = set(a - b for a, b in zip(pad(q, t.rank), pad(p, t.rank)))
            if not diff <= {1, -1}:
                raise ValueError(f"fan step {p} -> {q} must change every part by one")
        else:  # vacillating
            if kind == "equal":
                if len(p) != t.rank:
                    raise ValueError(
                        f"vacillating step may repeat {p} only with all {t.rank} parts positive"
                    )
            elif kind not in ("add_box", "remove_box"):
                raise ValueError(f"vacillating step {p} -> {q} must be a box or equal")


def spin_pair_energy_by_raising(r: int, a, b) -> int:
    """Local energy of spin letters a (x) b (a the left factor), by classical raising.

    Raises the pair to its classical highest weight (+^(r-k) -^k) (x) (+^r),
    along which the local energy is constant, and returns ceil(k / 2).
    """
    w = Word(SPIN, r, (b, a))  # left factor last
    limit = 4 * r * (r + 1)
    for _ in range(limit):
        for i in range(1, r + 1):
            up = tensor_apply(w, i, RAISE)
            if up is not None:
                w = up
                break
        else:
            break
    else:
        raise AssertionError("classical raising did not terminate")
    right, left = w.letters
    assert right == (1,) * r, "classical highest weight pair must end in all +"
    minus = sum(1 for s in left if s == -1)
    return (minus + 1) // 2
