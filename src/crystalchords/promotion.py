"""Local-rule promotion, promotion matrices, chord-diagram fillings and rotation.

Cells of the promotion matrix are labelled

    lambda  nu
    kappa   mu

and satisfy mu = dom(kappa + nu - lambda), with dom the hyperoctahedral
dominance map.  The grid entry mu^{i,j} is the (j-i)-th entry of pr^i(T),
indices mod n, so no geometric cut-and-glue is needed.

Words are read off the canonical steps through the crystal's step table
(:func:`crystals.step_letters`), and each state of the rule carries its
canonical partition, so promotion pads, subtracts and trims nothing per
call.  A vacillating tableau is promoted as pr_O^2 of its oscillating
embedding; the checks that the result stays in the image run once per
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
    check_step,
    letter_weight,
    step_letters,
)
from .virtual import NotInImage, _halve, embedded_word, psi_vec
from .weights import Partition, WeightVec, trim

Matrix = tuple[tuple[int, ...], ...]

# chord map tag -> the family it maps from; the first map of a family is its default
CHORD_MAPS = {"M_O": OSCILLATING, "M_F": FAN, "M_VO": VACILLATING, "M_VF": VACILLATING}


class _State(dict):
    """A partition kappa of a local rule, holding its own row of the table.

    ``parts`` is kappa padded to the rank and ``partition`` the same kappa
    trimmed.  Keys are letters of the family's crystal, values ``(next
    state, output letter, fill)``.  A letter missing from the row is computed
    by the rule on first use.  States are interned per rule, so they compare
    and hash by identity.
    """

    __slots__ = ("rule", "parts", "partition", "exit_letter")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rule: _LocalRule, parts: WeightVec):
        super().__init__()
        self.rule = rule
        self.parts = parts
        self.partition = trim(parts)
        self.exit_letter = None  # set once check_step passed the step to empty

    def __missing__(self, a) -> tuple[_State, object, int]:
        return self.rule.cell(self, a)


class _LocalRule:
    """mu = dom(kappa + nu - lambda) of one family and rank, as a lazily filled transducer.

    A state is a partition kappa; a letter is the crystal letter of a step
    nu - lambda.  The table maps (state, letter) to (state mu, letter of
    mu - kappa, fill), where the fill counts the negative entries of
    kappa + nu - lambda, capped at one for the oscillating family.  Each
    entry passes :func:`check_step` before it is stored, so a forbidden
    transition is never stored and raises its message every time it is met.
    The table memoises the rule only, never a sweep: each row is still walked
    cell by cell.

    ``vacillating`` holds, for the oscillating rule, the checked steps of
    vacillating promotion (see :func:`_vacillating_step`).
    """

    def __init__(self, family: str, rank: int):
        self.family = family
        self.kind = FAMILY_KIND[family]
        self.rank = rank
        self.letter_of = _letter_of(self.kind, rank)
        self.states: dict[WeightVec, _State] = {}
        self.zero = self.state((0,) * rank)
        self.vacillating: dict[tuple[_State, _State, _State], Partition] = {}

    def state(self, mu: WeightVec) -> _State:
        s = self.states.get(mu)
        if s is None:
            s = self.states[mu] = _State(self, mu)
        return s

    def cell(self, s: _State, a) -> tuple[_State, object, int]:
        kappa = s.parts
        v = tuple(map(add, kappa, letter_weight(self.kind, self.rank, a)))
        mu = tuple(sorted(map(abs, v), reverse=True))
        check_step(self.family, kappa, mu)
        fill = sum(x < 0 for x in v)
        if self.family == OSCILLATING:
            fill = min(fill, 1)
        entry = s[a] = (self.state(mu), self.letter_of[tuple(map(sub, mu, kappa))], fill)
        return entry

    def exit(self, s: _State):
        """Letter of the step from s into the empty partition, checked once per state."""
        if s.exit_letter is None:
            check_step(self.family, s.parts, self.zero.parts)
            s.exit_letter = self.letter_of[tuple(-x for x in s.parts)]
        return s.exit_letter


@cache
def _local_rule(family: str, rank: int) -> _LocalRule:
    return _LocalRule(family, rank)


def _promote_row(rule: _LocalRule, word) -> tuple[list[_State], list]:
    """States and letters of the promotion of a nonempty word, one lookup per cell.

    The states run from the empty partition back to it; the exit into it is
    checked like every cell.
    """
    s = rule.zero
    row = [s]
    out = []
    for a in word[1:]:
        s, b, _ = s[a]
        row.append(s)
        out.append(b)
    out.append(rule.exit(s))
    row.append(rule.zero)
    return row, out


def _vacillating_step(rule: _LocalRule, e: _State, o: _State, f: _State) -> Partition:
    """Half of f, for states at positions 2k, 2k+1, 2k+2 of pr_O^2 of an embedding.

    The halves of e and f must form a vacillating step whose embedding has o
    at the odd position; that is what shows that pr_O^2 keeps the image.  The
    check runs once per entry, before it is stored, so an entry that fails
    raises :class:`NotInImage` every time it is met.
    """
    key = (e, o, f)
    b = rule.vacillating.get(key)
    if b is None:
        halves = [_halve(e.parts), _halve(f.parts)]
        try:
            check_step(VACILLATING, *halves)
        except ValueError as exc:
            raise NotInImage(str(exc)) from exc
        # a checked step is the weight of a B-letter, whose first C-letter leads from e to o
        r = rule.rank
        x = psi_vec(_letter_of(BVEC, r)[tuple(map(sub, halves[1], halves[0]))], r)[0]
        if tuple(map(add, e.parts, letter_weight(CVEC, r, x))) != o.parts:
            raise NotInImage("odd steps do not match the embedding")
        b = rule.vacillating[key] = trim(halves[1])
    return b


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
        rule = _local_rule(t.family, r)
        row, _ = _promote_row(rule, step_letters(rule.kind, r, t.steps))
        steps = [s.partition for s in row]
    else:
        rule = _local_rule(OSCILLATING, r)
        _, word = _promote_row(rule, embedded_word(t, OSCILLATING))
        row, _ = _promote_row(rule, word)
        steps = [()]
        for k in range(0, len(row) - 1, 2):
            steps.append(_vacillating_step(rule, row[k], row[k + 1], row[k + 2]))
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
        return _promotion_fill(family, r, step_letters(FAMILY_KIND[family], r, t.steps))
    if tag == "M_VO":
        return _promotion_fill(OSCILLATING, r, embedded_word(t, OSCILLATING), 2)
    return _promotion_fill(FAN, r, embedded_word(t, FAN), 2, 2 * (r - 1))


def _promotion_fill(family: str, rank: int, word, block: int = 1, shift: int = 0) -> Matrix:
    """Filling of the promotion matrix, cell (i, j) read off the sweep making pr^(i+1)(T).

    ``word`` is the word of a weight-zero tableau of ``family``.
    For k = j - i mod n in 1..n-1 the cell is the table entry met at
    position k of row i.  On the diagonal lambda is empty, kappa the last
    inner step of pr^(i+1)(T) and nu the first step of pr^i(T); both are the
    one partition a step away from empty, so that cell is a table entry too.
    Each fill is added into its ``block`` x ``block`` block of the result,
    whose diagonal starts at ``-shift``.
    """
    n = len(word)
    if n == 0:
        return ()
    rule = _local_rule(family, rank)
    zero, leave = rule.zero, rule.exit
    m = n // block
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        out[i][i] = -shift
    cols = [j // block for j in range(n)] * 2  # column j mod n, in blocks
    for i in range(n):
        acc = out[cols[i]]
        s = zero
        nxt = []
        push = nxt.append
        for a, c in zip(word[1:], cols[i + 1 :]):
            s, b, f = s[a]
            push(b)
            if f:
                acc[c] += f
        push(leave(s))
        f = s[word[0]][2]
        if f:
            acc[cols[i]] += f
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
