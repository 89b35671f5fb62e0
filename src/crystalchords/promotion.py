"""Local-rule promotion, promotion matrices, chord-diagram fillings and rotation.

Cells of the promotion matrix are labelled

    lambda  nu
    kappa   mu

and satisfy mu = dom(kappa + nu - lambda), with dom the hyperoctahedral
dominance map.  The grid entry mu^{i,j} is the (j-i)-th entry of pr^i(T),
indices mod n, so no geometric cut-and-glue is needed.
"""

from __future__ import annotations

from operator import add, sub

from .crystals import _UNIT_MOVES, FAN, OSCILLATING, VACILLATING, TableauSeq, check_step
from .growth import blocksum
from .virtual import NotInImage, _halve, _v_to_o_vectors, iota_v_to_f, iota_v_to_o
from .weights import WeightVec, pad, trim

Matrix = tuple[tuple[int, ...], ...]

# chord map tag -> the family it maps from; the first map of a family is its default
CHORD_MAPS = {"M_O": OSCILLATING, "M_F": FAN, "M_VO": VACILLATING, "M_VF": VACILLATING}


def _sweep(prev: list[WeightVec], family: str) -> tuple[list[WeightVec], list[WeightVec]]:
    """One local-rule promotion sweep over weight-zero steps padded to the rank.

    Returns the padded steps of the promotion and, for each position
    k = 1..n-1, the vector kappa + nu - lambda whose dominant representative
    is step k.  Every new step, the last one into the empty partition
    included, is checked against the family's step rule.  Between two
    partitions that rule is a plain test on the moves: a fan step moves every
    part by one, an oscillating step one part; a step failing it goes to
    :func:`check_step` for its message.
    """
    zero = prev[0]
    fan = family == FAN
    row = [zero]
    vecs = []
    last = zero
    for k in range(1, len(prev) - 1):
        v = tuple(map(add, last, map(sub, prev[k + 1], prev[k])))
        mu = tuple(sorted(map(abs, v), reverse=True))
        moves = map(sub, mu, last)
        if not (_UNIT_MOVES.issuperset(moves) if fan else sum(map(abs, moves)) == 1):
            check_step(family, last, mu)
        row.append(mu)
        vecs.append(v)
        last = mu
    check_step(family, last, zero)
    row.append(zero)
    return row, vecs


def promote(t: TableauSeq) -> TableauSeq:
    """Promotion of a weight-zero tableau of any of the three families.

    A vacillating tableau is promoted as pr_O^2 of its oscillating embedding,
    on padded vectors.  The even positions of the result are halved, and the
    odd positions must be the embedding of the halves: that check, with the
    step check of each half, is what shows that pr_O^2 keeps the image.
    """
    if t.weight != ():
        raise ValueError("promotion requires weight zero")
    if len(t) == 0:
        return t
    r = t.rank
    steps = [pad(p, r) for p in t.steps]
    if t.family != VACILLATING:
        steps, _ = _sweep(steps, t.family)
    else:
        row, _ = _sweep(_v_to_o_vectors(steps), OSCILLATING)
        row, _ = _sweep(row, OSCILLATING)
        steps = [_halve(mu) for mu in row[::2]]
        for a, b in zip(steps, steps[1:]):
            try:
                check_step(VACILLATING, a, b)
            except ValueError as exc:
                raise NotInImage(str(exc)) from exc
        if _v_to_o_vectors(steps) != row:
            raise NotInImage("odd steps do not match the embedding")
    # _sweep checked every step, or the halves were checked above
    return TableauSeq._trusted(t.family, r, tuple(map(trim, steps)))


def chord_matrix(tag: str, t: TableauSeq) -> Matrix:
    """Adjacency matrix of the chord diagram attached to a weight-zero tableau."""
    family = CHORD_MAPS.get(tag)
    if family is None:
        raise ValueError(f"unknown chord map {tag!r}")
    if t.family != family:
        raise ValueError(f"{tag} expects the {family} family, got {t.family}")
    if family != VACILLATING:
        return _promotion_fill(t)
    if tag == "M_VO":
        return blocksum(_promotion_fill(iota_v_to_o(t)), 2)
    raw = blocksum(_promotion_fill(iota_v_to_f(t)), 2)
    # the doubled-length fan filling puts 2(r-1) in every diagonal block
    shift = 2 * (t.rank - 1)
    return tuple(
        tuple(x - shift if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(raw)
    )


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
