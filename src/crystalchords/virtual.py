"""Embeddings of the type-B crystals into tensor powers of the type-C vector crystal.

A spin letter maps to an r-letter C-word, a B-vector letter to a C-letter
pair, and on tableaux these induce the three embeddings fan->oscillating,
vacillating->oscillating and vacillating->fan.
"""

from __future__ import annotations

from operator import add, sub

from .crystals import (
    CVEC,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    cvec_order,
    letter_weight,
)
from .weights import WeightVec, pad, trim


class NotInImage(Exception):
    """A tableau is valid but not the image of the requested embedding."""


def psi_spin(eps: tuple, r: int) -> tuple:
    """C-letters (v_1, ..., v_r), increasing in the C-order, one per coordinate.

    Coordinate i contributes the letter i when eps[i-1] is +1 and the barred
    letter -i otherwise.
    """
    if len(eps) != r:
        raise ValueError(f"spin letter must have length {r}")
    out = [i if s == 1 else -i for i, s in enumerate(eps, start=1)]
    return tuple(sorted(out, key=lambda x: cvec_order(x, r)))


def psi_vec(b: int, r: int) -> tuple:
    """C-letter pair (u_1, u_2) with u_1 the rightmost factor; 0 maps to r (x) -r."""
    if b == 0:
        return (-r, r)
    return (b, b)


def iota_f_to_o(f: TableauSeq) -> TableauSeq:
    """Oscillating tableau of length r*n refining a fan one cell at a time."""
    if f.family != FAN:
        raise ValueError("expected a fan of Dyck paths")
    r = f.rank
    padded = [pad(p, r) for p in f.steps]
    steps = [()]
    for a, b in zip(padded, padded[1:]):
        mu = a
        for x in psi_spin(tuple(map(sub, b, a)), r):
            mu = tuple(map(add, mu, letter_weight(CVEC, r, x)))
            steps.append(trim(mu))
    return TableauSeq(OSCILLATING, r, tuple(steps))


def iota_v_to_o(v: TableauSeq) -> TableauSeq:
    """Oscillating tableau of twice the length; doubled corners at even positions."""
    return _vac_embedding(v, OSCILLATING, _v_to_o_vectors)


def iota_v_to_f(v: TableauSeq) -> TableauSeq:
    """Fan of twice the length; doubled corners at even positions."""
    return _vac_embedding(v, FAN, _v_to_f_vectors)


def _vac_embedding(v: TableauSeq, family: str, vectors) -> TableauSeq:
    if v.family != VACILLATING:
        raise ValueError("expected a vacillating tableau")
    if v.weight != ():
        raise ValueError("embedding requires weight zero")
    r = v.rank
    steps = vectors([pad(p, r) for p in v.steps])
    return TableauSeq(family, r, tuple(map(trim, steps)))


def _v_to_o_vectors(steps: list[WeightVec]) -> list[WeightVec]:
    """:func:`iota_v_to_o` on vacillating steps padded to the rank, giving padded steps.

    Step k of the vacillating tableau becomes position 2k, doubled; between
    steps a and b sits a + b, less e_r when a == b.
    """
    out = [steps[0]]
    for a, b in zip(steps, steps[1:]):
        odd = tuple(map(add, a, b))
        out.append(odd[:-1] + (odd[-1] - 1,) if a == b else odd)
        out.append(tuple(2 * x for x in b))
    return out


def _v_to_f_vectors(steps: list[WeightVec]) -> list[WeightVec]:
    """:func:`iota_v_to_f` on vacillating steps padded to the rank, giving padded steps.

    Step k of the vacillating tableau becomes position 2k, doubled; between
    steps a and b sits 2 min(a, b) + 1, less 2 e_r when a == b.
    """
    out = [steps[0]]
    for a, b in zip(steps, steps[1:]):
        odd = tuple(2 * min(x, y) + 1 for x, y in zip(a, b))
        out.append(odd[:-1] + (odd[-1] - 2,) if a == b else odd)
        out.append(tuple(2 * x for x in b))
    return out


def _halve(mu: WeightVec) -> WeightVec:
    """mu / 2 for a padded partition with even parts, or NotInImage."""
    if any(x % 2 for x in mu):
        raise NotInImage(f"{trim(mu)} has an odd part where a doubled partition is required")
    return tuple(x // 2 for x in mu)


def iota_f_to_o_inverse(t: TableauSeq) -> TableauSeq:
    """Fan with iota_f_to_o(result) == t, or NotInImage."""
    if t.family != OSCILLATING:
        raise ValueError("expected an oscillating tableau")
    r = t.rank
    if len(t) % r != 0:
        raise NotInImage(f"length {len(t)} is not a multiple of the rank {r}")
    try:
        f = TableauSeq(FAN, r, tuple(t.steps[k] for k in range(0, len(t) + 1, r)))
    except ValueError as exc:
        raise NotInImage(str(exc)) from exc
    if iota_f_to_o(f) != t:
        raise NotInImage("intermediate steps do not follow the letter refinement")
    return f


def iota_v_to_o_inverse(t: TableauSeq) -> TableauSeq:
    return _vac_inverse(t, OSCILLATING, iota_v_to_o)


def iota_v_to_f_inverse(t: TableauSeq) -> TableauSeq:
    return _vac_inverse(t, FAN, iota_v_to_f)


def _vac_inverse(t: TableauSeq, family: str, forward) -> TableauSeq:
    if t.family != family:
        raise ValueError(f"expected a {family} tableau")
    if len(t) % 2 != 0:
        raise NotInImage(f"length {len(t)} is odd")
    halves = [trim(_halve(pad(t.steps[k], t.rank))) for k in range(0, len(t) + 1, 2)]
    try:
        v = TableauSeq(VACILLATING, t.rank, tuple(halves))
    except ValueError as exc:
        raise NotInImage(str(exc)) from exc
    if v.weight != ():
        raise NotInImage("weight is not zero")
    if forward(v) != t:
        raise NotInImage("odd steps do not match the embedding")
    return v


_INVERSES = {
    (FAN, OSCILLATING): iota_f_to_o_inverse,
    (VACILLATING, OSCILLATING): iota_v_to_o_inverse,
    (VACILLATING, FAN): iota_v_to_f_inverse,
}


def iota_inverse(family_pair: tuple[str, str], t: TableauSeq) -> TableauSeq:
    """Invert the embedding source->target named by ``family_pair`` on t."""
    try:
        inv = _INVERSES[family_pair]
    except KeyError:
        raise ValueError(f"no embedding for {family_pair!r}") from None
    return inv(t)
