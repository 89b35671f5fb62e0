"""Embeddings of the type-B crystals into tensor powers of type-C crystals.

Each embedding is one letter map, in the table ``_LETTER_MAPS``:

* :func:`psi_spin`, fan -> oscillating: a spin letter to r C-letters;
* :func:`psi_vec`, vacillating -> oscillating: a B-vector letter to two
  C-letters;
* :func:`phi_vec`, vacillating -> fan: a B-vector letter to two spin letters.

:func:`embedded_word` concatenates the images of a tableau's letters, and
each tableau embedding is the tableau of that word.
"""

from __future__ import annotations

from .crystals import (
    FAMILY_KIND,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    Word,
    cvec_order,
    step_letters,
    word_to_tableau,
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


def phi_vec(b: int, r: int) -> tuple:
    """Spin-letter pair (s_1, s_2) with s_1 the rightmost factor, as in :func:`psi_vec`.

    i > 0 maps to (+1)^r, then +1 at i and -1 elsewhere; -i to -1 at i and +1
    elsewhere, then (-1)^r; 0 to -1 at r and +1 elsewhere, then +1 at r and
    -1 elsewhere.
    """
    i = abs(b) or r
    up = tuple(1 if j == i else -1 for j in range(1, r + 1))  # +1 at i, -1 elsewhere
    down = tuple(-s for s in up)
    if b > 0:
        return ((1,) * r, up)
    if b < 0:
        return (down, (-1,) * r)
    return (down, up)


# (source family, target family) -> the letter map of the embedding
_LETTER_MAPS = {
    (FAN, OSCILLATING): psi_spin,
    (VACILLATING, OSCILLATING): psi_vec,
    (VACILLATING, FAN): phi_vec,
}


def embedded_word(t: TableauSeq, target: str) -> list:
    """Letters of the target family's crystal: the images of t's letters, in order.

    A list: ``tuple()`` over a generator builds by resizing, which never
    takes from CPython's free list of small tuples, while every freed word
    of up to 20 letters is pushed onto it (up to 2000 of each length).
    """
    image = _LETTER_MAPS.get((t.family, target))
    if image is None:
        raise ValueError(f"no embedding for {(t.family, target)!r}")
    r = t.rank
    return [y for x in step_letters(FAMILY_KIND[t.family], r, t.steps) for y in image(x, r)]


def _embed(t: TableauSeq, target: str) -> TableauSeq:
    # the image word is highest weight, and word_to_tableau checks every step
    word = tuple(embedded_word(t, target))
    return word_to_tableau(Word._trusted(FAMILY_KIND[target], t.rank, word))


def iota_f_to_o(f: TableauSeq) -> TableauSeq:
    """Oscillating tableau of length r*n: each fan letter becomes its :func:`psi_spin` word."""
    if f.family != FAN:
        raise ValueError("expected a fan of Dyck paths")
    return _embed(f, OSCILLATING)


def iota_v_to_o(v: TableauSeq) -> TableauSeq:
    """Oscillating tableau of twice the length; doubled corners at even positions."""
    return _vac_embedding(v, OSCILLATING)


def iota_v_to_f(v: TableauSeq) -> TableauSeq:
    """Fan of twice the length; doubled corners at even positions."""
    return _vac_embedding(v, FAN)


def _vac_embedding(v: TableauSeq, family: str) -> TableauSeq:
    if v.family != VACILLATING:
        raise ValueError("expected a vacillating tableau")
    if v.weight != ():
        raise ValueError("embedding requires weight zero")
    return _embed(v, family)


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
