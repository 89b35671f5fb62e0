"""Embeddings of the type-B crystals into tensor powers of type-C crystals.

Each embedding is one letter map, in the table ``_LETTER_MAPS``:

* :func:`psi_spin`, fan -> oscillating: a spin letter to r C-letters;
* :func:`psi_vec`, vacillating -> oscillating: a B-vector letter to two
  C-letters;
* :func:`phi_vec`, vacillating -> fan: a B-vector letter to two spin letters.

:func:`embedded_word` concatenates the images of a tableau's letters; each
tableau embedding is the tableau of that word.  :func:`read_block` reads
the same table backwards, one block of :func:`block_size` target steps to
one source step; :func:`iota_inverse` and vacillating promotion read every
block through it.
"""

from __future__ import annotations

from .crystals import (
    CVEC,
    FAMILY_KIND,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    Word,
    _position_of,
    _step_table,
    letters,
    step_letters,
    word_to_tableau,
)
from .weights import Partition, halve


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
    return tuple(sorted(out, key=_position_of(CVEC, r).__getitem__))


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
    return [y for x in step_letters(t.family, r, t.steps) for y in image(x, r)]


def _embed(t: TableauSeq, source: str, target: str) -> TableauSeq:
    if t.family != source:
        raise ValueError(f"expected a {source} tableau")
    if source == VACILLATING and t.weight != ():
        raise ValueError("embedding requires weight zero")
    # the image word is highest weight, and word_to_tableau checks every step
    word = tuple(embedded_word(t, target))
    return word_to_tableau(Word._trusted(FAMILY_KIND[target], t.rank, word))


def iota_f_to_o(f: TableauSeq) -> TableauSeq:
    """Oscillating tableau of length r*n: each fan letter becomes its :func:`psi_spin` word."""
    return _embed(f, FAN, OSCILLATING)


def iota_v_to_o(v: TableauSeq) -> TableauSeq:
    """Oscillating tableau of twice the length; doubled corners at even positions."""
    return _embed(v, VACILLATING, OSCILLATING)


def iota_v_to_f(v: TableauSeq) -> TableauSeq:
    """Fan of twice the length; doubled corners at even positions."""
    return _embed(v, VACILLATING, FAN)


def block_size(family_pair: tuple[str, str], r: int) -> int:
    """k, the length of one letter's image: r for :func:`psi_spin`, 2 for the vector maps."""
    image = _LETTER_MAPS.get(family_pair)
    if image is None:
        raise ValueError(f"no embedding for {family_pair!r}")
    return len(image(letters(FAMILY_KIND[family_pair[0]], r)[0], r))


def read_block(family_pair: tuple[str, str], r: int, block) -> Partition:
    """The end of the source step whose image is the block of k + 1 target steps, or NotInImage.

    The block's ends, halved for a vacillating source, must be a step of the
    source's step table, and the block's letters that step's letter's image.
    """
    source, target = family_pair
    a, b = block[0], block[-1]
    try:
        if source == VACILLATING:
            a, b = halve(a), halve(b)
        x = _step_table(source, r)[a, b]
        if step_letters(target, r, block) == _LETTER_MAPS[family_pair](x, r):
            return b
    except ValueError as exc:
        raise NotInImage(str(exc)) from exc
    if source == VACILLATING:
        raise NotInImage("odd steps do not match the embedding")
    raise NotInImage("intermediate steps do not follow the letter refinement")


def iota_inverse(family_pair: tuple[str, str], t: TableauSeq) -> TableauSeq:
    """The source tableau whose embedding named by ``family_pair`` is t, or NotInImage.

    Each block of k + 1 steps of t, k = :func:`block_size`, is read back as
    one source step by :func:`read_block`; the first block that is not an
    image names the failure.
    """
    k = block_size(family_pair, t.rank)
    source, target = family_pair
    if t.family != target:
        raise ValueError(f"expected a {target} tableau")
    if len(t) % k:
        raise NotInImage(f"length {len(t)} is not a multiple of {k}")
    r, steps = t.rank, t.steps
    corners = [()]
    corners += [read_block(family_pair, r, steps[i : i + k + 1]) for i in range(0, len(t), k)]
    if source == VACILLATING and corners[-1] != ():
        raise NotInImage("weight is not zero")
    # read_block passed every step through the source's step table
    return TableauSeq._trusted(source, r, tuple(corners))
