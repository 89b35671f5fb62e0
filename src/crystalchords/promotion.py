"""Local-rule promotion, promotion matrices, chord-diagram fillings and rotation.

Cells of the promotion matrix are labelled

    lambda  nu
    kappa   mu

and satisfy mu = dom(kappa + nu - lambda), with dom the hyperoctahedral
dominance map.  The grid entry mu^{i,j} is the (j-i)-th entry of pr^i(T),
indices mod n, so no geometric cut-and-glue is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .crystals import FAN, OSCILLATING, VACILLATING, TableauSeq, check_step
from .growth import blocksum
from .virtual import iota_v_to_f, iota_v_to_o, iota_v_to_o_inverse
from .weights import (
    Partition,
    WeightVec,
    dominant_representative,
    pad,
    trim,
    vec_add,
    vec_sub,
)

Matrix = tuple[tuple[int, ...], ...]

CHORD_MAPS = ("M_O", "M_F", "M_VO", "M_VF")


def local_rule(lam: WeightVec, kap: WeightVec, nu: WeightVec) -> Partition:
    """dom(kappa + nu - lambda) for equal-length weight vectors."""
    if not len(lam) == len(kap) == len(nu):
        raise ValueError("weight vectors must have equal length")
    return dominant_representative(vec_add(kap, vec_sub(nu, lam)))


def _sweep(prev: list[WeightVec], family: str) -> tuple[list[WeightVec], list[WeightVec]]:
    """One local-rule promotion sweep over weight-zero steps padded to the rank.

    Returns the padded steps of the promotion and, for each position
    k = 1..n-1, the vector kappa + nu - lambda whose dominant representative
    is step k.  Every new step, the last one into the empty partition
    included, is checked against the family's step rule.
    """
    zero = prev[0]
    row = [zero]
    vecs = []
    for k in range(1, len(prev) - 1):
        v = tuple(map(add, row[-1], map(sub, prev[k + 1], prev[k])))
        mu = tuple(sorted(map(abs, v), reverse=True))
        check_step(family, row[-1], mu)
        row.append(mu)
        vecs.append(v)
    check_step(family, row[-1], zero)
    row.append(zero)
    return row, vecs


def _promote_steps(family: str, r: int, steps: tuple[Partition, ...]) -> tuple[Partition, ...]:
    """Promotion of a weight-zero oscillating or fan step sequence."""
    if len(steps) == 1:
        return steps
    row, _ = _sweep([pad(p, r) for p in steps], family)
    return tuple(trim(mu) for mu in row)


def promote(t: TableauSeq) -> TableauSeq:
    """Promotion of a weight-zero tableau of any of the three families."""
    if t.weight != ():
        raise ValueError("promotion requires weight zero")
    if t.family == VACILLATING:
        steps = iota_v_to_o(t).steps
        for _ in range(2):
            steps = _promote_steps(OSCILLATING, t.rank, steps)
        return iota_v_to_o_inverse(TableauSeq(OSCILLATING, t.rank, steps))
    return TableauSeq(t.family, t.rank, _promote_steps(t.family, t.rank, t.steps))


@dataclass(frozen=True)
class PromotionGrid:
    """Successive promotions of a weight-zero tableau, addressed modularly."""

    length: int
    rank: int
    rows: tuple[tuple[Partition, ...], ...]  # rows[i] = steps of pr^i(T)

    def entry(self, i: int, j: int) -> Partition:
        """mu^{i,j}: the (j-i)-th entry of pr^i(T), indices mod length."""
        n = self.length
        return self.rows[i % n][(j - i) % n]


def promotion_grid(t: TableauSeq) -> PromotionGrid:
    n = len(t)
    rows = []
    cur = t
    for _ in range(n):
        rows.append(cur.steps)
        cur = promote(cur)
    return PromotionGrid(n, t.rank, tuple(rows))


def chord_matrix(tag: str, t: TableauSeq) -> Matrix:
    """Adjacency matrix of the chord diagram attached to a weight-zero tableau."""
    if tag == "M_O":
        if t.family != OSCILLATING:
            raise ValueError("M_O expects an oscillating tableau")
        return _promotion_fill(t)
    if tag == "M_F":
        if t.family != FAN:
            raise ValueError("M_F expects a fan of Dyck paths")
        return _promotion_fill(t)
    if tag == "M_VO":
        if t.family != VACILLATING:
            raise ValueError("M_VO expects a vacillating tableau")
        return blocksum(_promotion_fill(iota_v_to_o(t)), 2)
    if tag == "M_VF":
        if t.family != VACILLATING:
            raise ValueError("M_VF expects a vacillating tableau")
        raw = blocksum(_promotion_fill(iota_v_to_f(t)), 2)
        # the doubled-length fan filling puts 2(r-1) in every diagonal block
        shift = 2 * (t.rank - 1)
        return tuple(
            tuple(x - shift if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(raw)
        )
    raise ValueError(f"unknown chord map {tag!r}")


def _promotion_fill(t: TableauSeq) -> Matrix:
    """Filling of the promotion matrix, cell (i, j) read off the sweep making pr^i(T).

    For k = j - i mod n in 1..n-1 the cell's kappa + nu - lambda is the
    vector the local rule forms at position k of row i; on the diagonal
    lambda is empty, kappa the last inner step of pr^i(T) and nu the first
    step of pr^(i-1)(T).  The filling counts the negative entries of that
    vector, capped at one for an oscillating tableau.
    """
    n = len(t)
    if n == 0:
        return ()
    if t.weight != ():
        raise ValueError("promotion requires weight zero")
    row = [pad(p, t.rank) for p in t.steps]
    out = []
    for i in range(n):
        nxt, vecs = _sweep(row, t.family)
        diag = tuple(map(add, nxt[n - 1], row[1]))
        if t.family == OSCILLATING:
            fills = [1 if min(v) < 0 else 0 for v in [diag, *vecs]]
        else:
            fills = [sum(x < 0 for x in v) for v in [diag, *vecs]]
        s = -i % n
        out.append(tuple(fills[s:] + fills[:s]))
        row = nxt
    return tuple(out)


def rotate_matrix(m: Matrix) -> Matrix:
    """Toroidal shift: cut the top row to the bottom, then the left column to the right."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return tuple(
        tuple(m[(i + 1) % n][(j + 1) % n] for j in range(n)) for i in range(n)
    )
