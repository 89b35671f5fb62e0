"""Local-rule promotion, promotion matrices, chord-diagram fillings and rotation.

Cells of the promotion matrix are labelled

    lambda  nu
    kappa   mu

and satisfy mu = dom(kappa + nu - lambda), with dom the hyperoctahedral
dominance map.  The grid entry mu^{i,j} is the (j-i)-th entry of pr^i(T),
indices mod n, so no geometric cut-and-glue is needed.
"""

from __future__ import annotations

from functools import cache
from operator import add, sub

from .crystals import FAN, OSCILLATING, VACILLATING, TableauSeq, check_step
from .virtual import NotInImage, _halve, _v_to_f_vectors, _v_to_o_vectors
from .weights import WeightVec, pad, trim

Matrix = tuple[tuple[int, ...], ...]

# chord map tag -> the family it maps from; the first map of a family is its default
CHORD_MAPS = {"M_O": OSCILLATING, "M_F": FAN, "M_VO": VACILLATING, "M_VF": VACILLATING}


class _State(dict):
    """A padded partition kappa of a local rule, holding its own row of the table.

    Keys are input letters, values ``(next state, output letter, fill)``.  A
    letter missing from the row is computed by the rule on first use.
    """

    __slots__ = ("rule", "parts", "exit_letter")

    def __init__(self, rule: _LocalRule, parts: WeightVec):
        super().__init__()
        self.rule = rule
        self.parts = parts
        self.exit_letter: int | None = None  # set once check_step passed the step to empty

    def __missing__(self, a: int) -> tuple[_State, int, int]:
        return self.rule.cell(self, a)


class _LocalRule:
    """mu = dom(kappa + nu - lambda) of one family and rank, as a lazily filled transducer.

    A state is a padded partition kappa; a letter is a step difference
    nu - lambda, interned as a small int.  The table maps (state, letter) to
    (state mu, letter mu - kappa, fill), where the fill counts the negative
    entries of kappa + nu - lambda, capped at one for the oscillating family.
    Each entry passes :func:`check_step` before it is stored, so a forbidden
    transition is never stored and raises its message every time it is met.
    The table memoises the rule only, never a sweep: each row is still walked
    cell by cell.
    """

    def __init__(self, family: str, rank: int):
        self.family = family
        self.letter_ids: dict[WeightVec, int] = {}
        self.letters: list[WeightVec] = []
        self.states: dict[WeightVec, _State] = {}
        self.zero = self.state((0,) * rank)

    def state(self, mu: WeightVec) -> _State:
        s = self.states.get(mu)
        if s is None:
            s = self.states[mu] = _State(self, mu)
        return s

    def letter(self, d: WeightVec) -> int:
        a = self.letter_ids.get(d)
        if a is None:
            a = self.letter_ids[d] = len(self.letters)
            self.letters.append(d)
        return a

    def word(self, steps: list[WeightVec]) -> list[int]:
        """Letters of the steps between consecutive padded partitions."""
        return [self.letter(tuple(map(sub, b, a))) for a, b in zip(steps, steps[1:])]

    def cell(self, s: _State, a: int) -> tuple[_State, int, int]:
        kappa = s.parts
        v = tuple(map(add, kappa, self.letters[a]))
        mu = tuple(sorted(map(abs, v), reverse=True))
        check_step(self.family, kappa, mu)
        fill = sum(x < 0 for x in v)
        if self.family == OSCILLATING:
            fill = min(fill, 1)
        entry = s[a] = (self.state(mu), self.letter(tuple(map(sub, mu, kappa))), fill)
        return entry

    def exit(self, s: _State) -> int:
        """Letter of the step from s into the empty partition, checked once per state."""
        if s.exit_letter is None:
            check_step(self.family, s.parts, self.zero.parts)
            s.exit_letter = self.letter(tuple(-x for x in s.parts))
        return s.exit_letter


@cache
def _local_rule(family: str, rank: int) -> _LocalRule:
    return _LocalRule(family, rank)


def _promote_row(rule: _LocalRule, word: list[int]) -> tuple[list[WeightVec], list[int]]:
    """Padded steps and letters of the promotion of a nonempty word, one lookup per cell."""
    s = rule.zero
    row = [s.parts]
    out = []
    for a in word[1:]:
        s, b, _ = s[a]
        row.append(s.parts)
        out.append(b)
    out.append(rule.exit(s))
    row.append(rule.zero.parts)
    return row, out


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
        rule = _local_rule(t.family, r)
        steps, _ = _promote_row(rule, rule.word(steps))
    else:
        rule = _local_rule(OSCILLATING, r)
        _, word = _promote_row(rule, rule.word(_v_to_o_vectors(steps)))
        row, _ = _promote_row(rule, word)
        steps = [_halve(mu) for mu in row[::2]]
        for a, b in zip(steps, steps[1:]):
            try:
                check_step(VACILLATING, a, b)
            except ValueError as exc:
                raise NotInImage(str(exc)) from exc
        if _v_to_o_vectors(steps) != row:
            raise NotInImage("odd steps do not match the embedding")
    # every table entry was checked, or the halves were checked above
    return TableauSeq._trusted(t.family, r, tuple(map(trim, steps)))


def chord_matrix(tag: str, t: TableauSeq) -> Matrix:
    """Adjacency matrix of the chord diagram attached to a weight-zero tableau.

    ``M_VO`` and ``M_VF`` sum the 2x2 blocks of the promotion matrix of the
    embedding; the doubled-length fan filling puts 2(r-1) in every diagonal
    block of ``M_VF``, which is taken off.  Each runs on its own embedding,
    built on the padded steps of the already validated tableau.
    """
    family = CHORD_MAPS.get(tag)
    if family is None:
        raise ValueError(f"unknown chord map {tag!r}")
    if t.family != family:
        raise ValueError(f"{tag} expects the {family} family, got {t.family}")
    if t.weight != ():
        raise ValueError("promotion requires weight zero")
    r = t.rank
    steps = [pad(p, r) for p in t.steps]
    if family != VACILLATING:
        return _promotion_fill(family, r, steps)
    if tag == "M_VO":
        return _promotion_fill(OSCILLATING, r, _v_to_o_vectors(steps), 2)
    return _promotion_fill(FAN, r, _v_to_f_vectors(steps), 2, 2 * (r - 1))


def _promotion_fill(
    family: str, rank: int, steps: list[WeightVec], block: int = 1, shift: int = 0
) -> Matrix:
    """Filling of the promotion matrix, cell (i, j) read off the sweep making pr^(i+1)(T).

    ``steps`` are the steps of a weight-zero tableau of ``family``, padded to
    ``rank``.  For k = j - i mod n in 1..n-1 the cell is the table entry met at
    position k of row i.  On the diagonal lambda is empty, kappa the last
    inner step of pr^(i+1)(T) and nu the first step of pr^i(T); both are the
    one partition a step away from empty, so that cell is a table entry too.
    Each fill is added into its ``block`` x ``block`` block of the result,
    whose diagonal starts at ``-shift``.
    """
    n = len(steps) - 1
    if n == 0:
        return ()
    rule = _local_rule(family, rank)
    word = rule.word(steps)
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
