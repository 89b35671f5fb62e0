"""Local-rule promotion, promotion matrices, chord-diagram fillings and rotation.

Cells of the promotion matrix are labelled

    lambda  nu
    kappa   mu

and satisfy mu = dom(kappa + nu - lambda), with dom the hyperoctahedral
dominance map.  The grid entry mu^{i,j} is the (j-i)-th entry of pr^i(T),
indices mod n, so no geometric cut-and-glue is needed.

Words are read off the canonical steps through the crystal's step table
(:func:`crystals.step_letters`), and the states of :class:`_LocalRule` are
labelled by canonical partitions, so promotion pads, subtracts and trims
only when a table misses.  Every word that reaches a promotion matrix has
even length, so its rows are walked two at a time, as pairs of states.  A
vacillating tableau is promoted as pr_O^2 of its oscillating embedding, one
pair walk; the checks that the result stays in the image run once per
stored entry of that walk, not once per call.
"""

from __future__ import annotations

from functools import cache
from operator import add, sub

from .crystals import (
    BVEC,
    CVEC,
    FAMILY_KIND,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    _letter_of,
    _pairs,
    _State,
    _states,
    _Table,
    check_step,
    letter_weight,
    step_letters,
)
from .virtual import NotInImage, _halve, embedded_word, psi_vec
from .weights import Matrix, Partition, pad, trim

# chord map tag -> the family it maps from; the first map of a family is its default
CHORD_MAPS = {"M_O": OSCILLATING, "M_F": FAN, "M_VO": VACILLATING, "M_VF": VACILLATING}


class _LocalRule:
    """mu = dom(kappa + nu - lambda) of one family and rank, as a lazily filled transducer.

    A state is a partition kappa, interned by its canonical (trimmed) form
    in ``states`` (:func:`crystals._states`); a letter is the crystal letter
    of a step nu - lambda.  The table maps (state, letter) to (state mu,
    letter of mu - kappa, fill), where the fill counts the negative entries
    of kappa + nu - lambda, capped at one for the oscillating family.  Each
    entry passes :func:`check_step` before it is stored, so a forbidden
    transition is never stored and raises its message every time it is met;
    ``exits`` holds the letter of each state's step into the empty
    partition, checked the same way.  The table memoises the rule only,
    never a sweep.  ``pairs`` (:func:`crystals._pairs`) walks rows i and
    i + 1 of a promotion matrix, or of pr^2, in one lookup per letter of row
    i; each of its entries is two entries of this table, and memoises two
    cells, never a row.

    ``vacillating`` holds, for the oscillating rule, the checked steps of
    vacillating promotion (:meth:`_vacillating_step`).
    """

    def __init__(self, family: str, rank: int):
        self.family = family
        self.kind = FAMILY_KIND[family]
        self.rank = rank
        self.letter_of = _letter_of(self.kind, rank)
        self.states = _states(self.cell)
        self.zero = self.states[()]
        self.exits = _Table(self._exit)
        self.pairs = _pairs()
        self.vacillating = _Table(self._vacillating_step)

    def cell(self, s: _State, a) -> tuple[_State, object, int]:
        kappa = pad(s.label, self.rank)
        v = tuple(map(add, kappa, letter_weight(self.kind, self.rank, a)))
        mu = tuple(sorted(map(abs, v), reverse=True))
        check_step(self.family, kappa, mu)
        fill = sum(x < 0 for x in v)
        if self.family == OSCILLATING:
            fill = min(fill, 1)
        return self.states[trim(mu)], self.letter_of[tuple(map(sub, mu, kappa))], fill

    def _exit(self, s: _State):
        """Letter of the step from s into the empty partition."""
        kappa = pad(s.label, self.rank)
        check_step(self.family, kappa, (0,) * self.rank)
        return self.letter_of[tuple(-x for x in kappa)]

    def _vacillating_step(self, key: tuple[_State, _State, _State]) -> Partition:
        """Half of f, for states (e, o, f) at positions 2k, 2k+1, 2k+2 of pr_O^2 of an embedding.

        The halves of e and f must form a vacillating step whose embedding has
        o at the odd position; that is what shows that pr_O^2 keeps the image.
        """
        e, o, f = key
        r = self.rank
        kappa = pad(e.label, r)
        halves = [_halve(kappa), _halve(pad(f.label, r))]
        try:
            check_step(VACILLATING, *halves)
        except ValueError as exc:
            raise NotInImage(str(exc)) from exc
        # a checked step is the weight of a B-letter, whose first C-letter leads from e to o
        x = psi_vec(_letter_of(BVEC, r)[tuple(map(sub, halves[1], halves[0]))], r)[0]
        if tuple(map(add, kappa, letter_weight(CVEC, r, x))) != pad(o.label, r):
            raise NotInImage("odd steps do not match the embedding")
        return trim(halves[1])


@cache
def _local_rule(family: str, rank: int) -> _LocalRule:
    return _LocalRule(family, rank)


def _promote_row(rule: _LocalRule, word) -> list[_State]:
    """States of the promotion of a nonempty word, one lookup per cell.

    The states run from the empty partition back to it; the exit into it is
    checked like every cell.
    """
    s = rule.zero
    row = [s]
    push = row.append
    for a in word[1:]:
        s = s[a][0]
        push(s)
    rule.exits[s]
    push(rule.zero)
    return row


def _promote_twice(rule: _LocalRule, word) -> list[_State]:
    """States of the second promotion of a word of even length, its two rows walked as one pair.

    Row 2 reads each letter of the promoted word as row 1 writes it
    (:func:`crystals._pairs`); both exits into the empty partition are
    checked like every cell.
    """
    zero, exits = rule.zero, rule.exits
    p = rule.pairs[zero[word[1]][0], zero]
    row = [zero]
    push = row.append
    for a in word[2:]:
        p = p[a][0]
        push(p.label[1])
    s, t = p.label
    t = t[exits[s]][0]
    exits[t]
    row += (t, zero)
    return row


def promote(t: TableauSeq) -> TableauSeq:
    """Promotion of a weight-zero tableau of any of the three families.

    A vacillating tableau is promoted as pr_O^2 of its oscillating embedding,
    whose word gives each vacillating letter two C-letters
    (:func:`virtual.embedded_word`).  The states at the even positions of the
    result are halved, and each odd one must be the embedding of its halves.
    """
    if t.weight != ():
        raise ValueError("promotion requires weight zero")
    if len(t) == 0:
        return t
    r = t.rank
    if t.family != VACILLATING:
        row = _promote_row(_local_rule(t.family, r), step_letters(t.family, r, t.steps))
        steps = [s.label for s in row]
    else:
        rule = _local_rule(OSCILLATING, r)
        row = _promote_twice(rule, embedded_word(t, OSCILLATING))
        checked = rule.vacillating
        steps = [()]
        for k in range(0, len(row) - 1, 2):
            steps.append(checked[row[k], row[k + 1], row[k + 2]])
    # every table entry and every vacillating entry was checked when it was stored
    return TableauSeq._trusted(t.family, r, tuple(steps))


def chord_matrix(tag: str, t: TableauSeq) -> Matrix:
    """Adjacency matrix of the chord diagram attached to a weight-zero tableau.

    ``M_VO`` and ``M_VF`` sum the 2x2 blocks of the promotion matrix of the
    embedding; the doubled-length fan filling puts 2(r-1) in every diagonal
    block of ``M_VF``, which is taken off.  Each runs on its own embedded
    word of the already validated tableau, so no embedded tableau is built.
    """
    family = CHORD_MAPS.get(tag)
    if family is None:
        raise ValueError(f"unknown chord map {tag!r}")
    if t.family != family:
        raise ValueError(f"{tag} expects the {family} family, got {t.family}")
    if t.weight != ():
        raise ValueError("promotion requires weight zero")
    r = t.rank
    if family != VACILLATING:
        return _promotion_fill(family, r, step_letters(family, r, t.steps))
    if tag == "M_VO":
        return _promotion_fill(OSCILLATING, r, embedded_word(t, OSCILLATING), 2)
    return _promotion_fill(FAN, r, embedded_word(t, FAN), 2, 2 * (r - 1))


def _promotion_fill(family: str, rank: int, word, block: int = 1, shift: int = 0) -> Matrix:
    """Filling of the promotion matrix, cell (i, j) read off the sweep making pr^(i+1)(T).

    ``word`` is the word of a weight-zero tableau of ``family``, of even
    length.  For k = j - i mod n in 1..n-1 the cell is the table entry met
    at position k of row i.  On the diagonal lambda is empty, kappa the last
    inner step of pr^(i+1)(T) and nu the first step of pr^i(T); both are the
    one partition a step away from empty, so kappa + nu has no negative
    entry, the step to its dominant form passes :func:`check_step`, and the
    cell fills 0 without a lookup.  Rows i and i + 1 are walked as one pair
    (:func:`crystals._pairs`), row i + 1 reading each letter as row i writes
    it; both fills of a pair entry land in the same column.  Each fill is
    added into its ``block`` x ``block`` block of the result, whose diagonal
    starts at ``-shift``.
    """
    n = len(word)
    if n == 0:
        return ()
    rule = _local_rule(family, rank)
    zero, exits, pairs = rule.zero, rule.exits, rule.pairs
    m = n // block
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        out[i][i] = -shift
    cols = [j // block for j in range(n)] * 2  # column j mod n, in blocks
    for i in range(0, n, 2):
        acc, acc2 = out[cols[i]], out[cols[i + 1]]
        at = cols[i + 1 :]  # at[k - 1]: column of position k of row i and k - 1 of row i + 1
        s, _, f = zero[word[1]]
        if f:
            acc[at[0]] += f
        p = pairs[s, zero]
        nxt = []
        push = nxt.append
        for a in word[2:]:
            p, b, f, g = p[a]
            push(b)
            # a is at position len(nxt) + 1 of row i
            if f:
                acc[at[len(nxt)]] += f
            if g:
                acc2[at[len(nxt)]] += g
        # row i + 1 reads the exit of row i at position n - 1, in column i
        s, t = p.label
        t, b, g = t[exits[s]]
        push(b)
        push(exits[t])
        if g:
            acc2[cols[i]] += g
        word = nxt
    return tuple(map(tuple, out))


def rotate_matrix(m: Matrix) -> Matrix:
    """Toroidal shift: cut the top row to the bottom, then the left column to the right."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return tuple(
        tuple(m[(i + 1) % n][(j + 1) % n] for j in range(n)) for i in range(n)
    )
