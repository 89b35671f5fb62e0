"""The three crystals (spin, C-vector, B-vector), words and tableau families.

Letters:

* ``cvec`` (vector crystal, type C): integers ``1..r`` and ``-1..-r``, where
  ``-a`` stands for the barred letter a-bar.
* ``bvec`` (vector crystal, type B): the same plus the letter ``0``.
* ``spin`` (spin crystal, type B): tuples of ``+1``/``-1`` of length r.

Factor-order convention (the single point of truth): a :class:`Word` stores
``letters = (u_1, ..., u_n)`` where ``u_1`` is the *rightmost* tensor factor
of the element ``u_n (x) ... (x) u_1``, bracketed left-associatively as
``(((u_n (x) u_{n-1}) (x) ...) (x) u_1)``.  Every operation stated on tensor
products is re-indexed here and nowhere else.

A step of a tableau adds the weight of one letter of its family's crystal,
and :func:`check_step` alone says which steps a family allows.  Highest
weight is decided by that rule: a word is highest weight exactly when its
prefix weights form a tableau of the family, which :func:`word_to_tableau`
checks in one pass.  :func:`enumerate_zero` lists next steps by the same
rule, memoised per partition.  It builds each tableau as a head, listed
depth-first up to the middle step, followed by a tail back to the empty
partition; tails are memoised for the one call.  Heads come in
lexicographic order and so do each head's tails, so the listing does too,
and a count sums the tails of each head without building a tableau.
:func:`tableau_to_word` reads each step back as a letter from the step
table of its (family, rank), keyed by the pair of canonical partitions and
filled on first use, so no call pads or subtracts.  Its fill runs
:func:`check_step`, so :func:`validate_tableau` checks steps through it,
after checking every partition itself on every call; the promotion rule
takes its words from it.  The crystal operators e_i and f_i, which define
highest weight, follow the same factor order and live in
``tests/oracles.py`` as the definition the tests hold this rule to.

Every lazy table follows one memo policy, written here once: a missing key
of a :class:`_Table` stores ``fill(key)``, of an interned :class:`_State`
row ``fill(state, key)``, and a fill that raises stores nothing.  The
states of a transducer are interned by :func:`_states`; :func:`_pairs`
interns pairs of them that walk two rows of the transducer in one lookup,
each entry two lookups of the base rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add, sub
from typing import Sequence

from .weights import Partition, WeightVec, is_partition, pad, partition, trim

SPIN = "spin"
CVEC = "cvec"
BVEC = "bvec"
KINDS = (SPIN, CVEC, BVEC)

OSCILLATING = "oscillating"
FAN = "fan"
VACILLATING = "vacillating"
FAMILIES = (OSCILLATING, FAN, VACILLATING)

# crystal whose highest weight words of weight zero the family encodes
FAMILY_KIND = {OSCILLATING: CVEC, FAN: SPIN, VACILLATING: BVEC}


def letters(kind: str, r: int) -> tuple:
    """All letters of the crystal; vector kinds in increasing letter order."""
    if kind == CVEC:
        return tuple(range(1, r + 1)) + tuple(-a for a in range(r, 0, -1))
    if kind == BVEC:
        return tuple(range(1, r + 1)) + (0,) + tuple(-a for a in range(r, 0, -1))
    if kind == SPIN:
        out = []
        for bits in range(1 << r):
            out.append(tuple(1 if bits & (1 << j) == 0 else -1 for j in range(r)))
        return tuple(out)
    raise ValueError(f"unknown crystal kind {kind!r}")


def _check_rank(r) -> None:
    if type(r) is not int:  # True would share the tables of rank 1
        raise ValueError(f"rank must be an int, not {type(r).__name__}")
    if r < 1:
        raise ValueError("rank must be positive")


def is_letter(kind: str, r: int, x) -> bool:
    # type(...) is int, not isinstance: True and False are ints but no letters
    if kind == CVEC:
        return type(x) is int and x != 0 and abs(x) <= r
    if kind == BVEC:
        return type(x) is int and abs(x) <= r
    if kind == SPIN:
        return (
            isinstance(x, tuple) and len(x) == r and all(type(e) is int and e in (1, -1) for e in x)
        )
    raise ValueError(f"unknown crystal kind {kind!r}")


def letter_weight(kind: str, r: int, x) -> WeightVec:
    """Weight of a letter; spin weights are stored doubled (entries +-1)."""
    if kind == SPIN:
        return x
    out = [0] * r
    if x:
        out[abs(x) - 1] = 1 if x > 0 else -1
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """A tensor word; ``letters[0]`` is the rightmost factor."""

    kind: str
    rank: int
    letters: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown crystal kind {self.kind!r}")
        _check_rank(self.rank)
        for x in self.letters:
            if not is_letter(self.kind, self.rank, x):
                raise ValueError(f"{x!r} is not a {self.kind} letter of rank {self.rank}")

    @classmethod
    def _trusted(cls, kind: str, rank: int, letters: tuple) -> Word:
        """A word built without validation, for callers whose letters are letters by construction."""
        w = _new(cls)
        _set_kind(w, kind)
        _set_word_rank(w, rank)
        _set_letters(w, letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True, slots=True)
class TableauSeq:
    """A tagged sequence of partitions starting at the empty partition."""

    family: str
    rank: int
    steps: tuple[Partition, ...]

    def __post_init__(self):
        validate_tableau(self)

    @classmethod
    def _trusted(cls, family: str, rank: int, steps: tuple[Partition, ...]) -> TableauSeq:
        """A tableau built without validation, for callers that have just checked every step."""
        t = _new(cls)
        _set_family(t, family)
        _set_rank(t, rank)
        _set_steps(t, steps)
        return t

    def __len__(self) -> int:
        return len(self.steps) - 1

    @property
    def weight(self) -> Partition:
        return self.steps[-1]


# A frozen instance refuses plain assignment, so its __init__ writes through
# object.__setattr__.  The trusted constructors write each slot through its
# member descriptor instead, which skips that attribute lookup: 0.32 against
# 0.57 us per tableau (Python 3.11, 2-core host).
_new = object.__new__
_set_kind, _set_word_rank, _set_letters = (
    Word.kind.__set__,
    Word.rank.__set__,
    Word.letters.__set__,
)
_set_family, _set_rank, _set_steps = (
    TableauSeq.family.__set__,
    TableauSeq.rank.__set__,
    TableauSeq.steps.__set__,
)


def tableau(family: str, rank: int, steps: Sequence[Sequence[int]]) -> TableauSeq:
    return TableauSeq(family, rank, tuple(partition(s) for s in steps))


_INT = frozenset((int,))  # the exact type of every part: no bool, float or str


def validate_tableau(t: TableauSeq) -> None:
    if t.family not in FAMILIES:
        raise ValueError(f"unknown family {t.family!r}")
    _check_rank(t.rank)
    steps = t.steps
    if not steps or steps[0] != ():
        raise ValueError("step sequence must start at the empty partition")
    r = t.rank
    for p in steps:
        # checked on every call, never memoised: True and 1.0 hash and compare as 1
        _check_canonical(p)
        if len(p) > r:
            raise ValueError(f"{p} has more than {r} parts")
    # the step table stores a step's letter only after check_step passed it
    step_letters(t.family, r, steps)


def _check_canonical(p) -> None:
    """Raise unless p is a canonical partition: a tuple of exact ints, weakly decreasing, all positive."""
    if (
        not (isinstance(p, tuple) and _INT.issuperset(map(type, p)))
        or not is_partition(p)
        or p and p[-1] == 0
    ):
        raise ValueError(f"{p!r} is not a canonical partition")


_UNIT_MOVES = frozenset((1, -1))


def check_step(family: str, a: WeightVec, b: WeightVec) -> None:
    """Raise unless the family allows a step from a to b, both padded to the rank."""
    moves = [y - x for x, y in zip(a, b) if y != x]
    if family == FAN:
        if len(moves) != len(a) or not _UNIT_MOVES.issuperset(moves):
            raise ValueError(f"fan step {trim(a)} -> {trim(b)} must change every part by one")
    elif len(moves) == 1 and moves[0] in _UNIT_MOVES:
        return
    elif family == OSCILLATING:
        raise ValueError(f"oscillating step {trim(a)} -> {trim(b)} must add or remove one box")
    elif moves:
        raise ValueError(f"vacillating step {trim(a)} -> {trim(b)} must be a box or equal")
    elif a[-1] == 0:
        raise ValueError(
            f"vacillating step may repeat {trim(a)} only with all {len(a)} parts positive"
        )


def word_to_tableau(w: Word) -> TableauSeq:
    """Partial weight sums of a highest weight word, as a tableau.

    A word of these crystals is highest weight exactly when its prefix
    weights are partitions and each of its steps is a step of the family
    (the signature rule), so one pass of :func:`check_step` decides it.
    """
    family = next(f for f, kind in FAMILY_KIND.items() if kind == w.kind)
    a = (0,) * w.rank
    steps = [()]
    for x in w.letters:
        b = tuple(map(add, a, letter_weight(w.kind, w.rank, x)))
        if not is_partition(b):
            raise ValueError(f"word is not highest weight: prefix weight {b} is not a partition")
        try:
            check_step(family, a, b)
        except ValueError as exc:
            raise ValueError(f"word is not highest weight: {exc}") from exc
        steps.append(trim(b))
        a = b
    # every step has just been checked
    return TableauSeq._trusted(family, w.rank, tuple(steps))


def is_highest(w: Word) -> bool:
    """True iff every raising operator annihilates the word (see :func:`word_to_tableau`)."""
    try:
        word_to_tableau(w)
    except ValueError:
        return False
    return True


def tableau_to_word(t: TableauSeq) -> Word:
    """Inverse of :func:`word_to_tableau`."""
    return Word._trusted(FAMILY_KIND[t.family], t.rank, step_letters(t.family, t.rank, t.steps))


def step_letters(family: str, r: int, steps: Sequence[Partition]) -> tuple:
    """Letters of the steps between consecutive canonical partitions; a forbidden one raises."""
    return tuple(map(_step_table(family, r).__getitem__, zip(steps, steps[1:])))


class _Table(dict):
    """A dict that stores ``fill(key)`` for a missing key; a fill that raises stores nothing."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _State(dict):
    """A state of a lazily filled transducer, holding its own row; see :func:`_states`.

    A missing key stores ``fill(state, key)``.  States are interned by
    ``label``, so they compare and hash by identity.
    """

    __slots__ = ("fill", "label")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, fill, label):
        super().__init__()
        self.fill = fill
        self.label = label

    def __missing__(self, key):
        value = self[key] = self.fill(self, key)
        return value


def _states(fill) -> _Table:
    """The states of one transducer, interned by label, each row filled by ``fill(state, key)``."""
    return _Table(lambda label: _State(fill, label))


def _pairs() -> _Table:
    """Two rows of one transducer walked in lockstep, the second one letter behind.

    A pair state is the :class:`_State` row labelled (s, t), for states s
    and t of the transducer whose rows return (next state, output, value).
    The letter a is read by s, whose output b is read by t: for
    ``s2, b, f = s[a]`` and ``t2, c, g = t[b]`` the entry is
    ``(pairs[s2, t2], c, f, g)``.  So one lookup walks two rows, and a base
    fill that raises stores nothing, in the base rows or here.
    """

    def fill(pair: _State, a) -> tuple[_State, object, object, object]:
        s, t = pair.label
        s, b, f = s[a]
        t, c, g = t[b]
        return pairs[s, t], c, f, g

    pairs = _states(fill)
    return pairs


@cache
def _step_table(family: str, r: int) -> _Table:
    """The letter of each step (a, b) of canonical partitions, filled on first use.

    The fill runs :func:`check_step` and returns the letter of weight
    pad(b) - pad(a), so each step is padded, checked and subtracted once per
    (family, rank), not once per tableau.
    """
    letter_of = _letter_of(FAMILY_KIND[family], r)

    def letter(step: tuple[Partition, Partition]):
        a, b = pad(step[0], r), pad(step[1], r)
        check_step(family, a, b)
        return letter_of[tuple(map(sub, b, a))]

    return _Table(letter)


@cache
def _letter_of(kind: str, r: int) -> dict[WeightVec, object]:
    """Each letter of the crystal keyed by its weight (distinct); shared, so read only."""
    return {letter_weight(kind, r, x): x for x in letters(kind, r)}


@cache
def _position_of(kind: str, r: int) -> dict[object, int]:
    """Each letter's position in the order of :func:`letters`; shared, so read only."""
    return {x: i for i, x in enumerate(letters(kind, r))}


@cache
def _children(family: str, r: int, p: Partition) -> tuple[Partition, ...]:
    """Possible next steps after p, in lexicographic order.

    Each is p plus the weight of a letter, kept if :func:`check_step` allows it.
    """
    a = pad(p, r)
    out = []
    for d in _letter_of(FAMILY_KIND[family], r):
        b = tuple(map(add, a, d))
        if is_partition(b):
            try:
                check_step(family, a, b)
            except ValueError:
                continue
            out.append(trim(b))
    return tuple(sorted(out))


def _feasible(family: str, p: Partition, remaining: int) -> bool:
    """Can p still reach the empty partition in the remaining steps?

    Parity needs no test: :func:`enumerate_zero` lists no oscillating
    tableau or fan of odd length, and at an even length every step k of
    such a path has size (oscillating) or parts (fan) of the parity of k.
    """
    if family == FAN:
        return not p or p[0] <= remaining
    return sum(p) <= remaining


def enumerate_zero(
    family: str, r: int, n: int, prefix: Sequence[Partition] | None = None
) -> list[TableauSeq]:
    """All weight-zero members of the family, in lexicographic step order.

    Each tableau is a *head*, its steps up to the middle step n // 2, and a
    *tail*, the steps from there back to the empty partition.  Heads are
    listed depth-first; each is followed by all its tails, which are
    memoised per (partition, steps left) for this call only, so a tail is
    built once and shared by every head that ends at its partition.  Heads
    come in order and so do each head's tails, so the listing is in order.

    ``prefix`` fixes the first steps (starting at the empty partition), so
    workers given disjoint prefixes partition the search space; concatenating
    their outputs in prefix order reproduces the full listing.  A prefix
    that reaches past the middle step is itself the one head.
    """
    trusted = TableauSeq._trusted
    # every step came from _children, so no tableau needs validation
    return [
        trusted(family, r, head + tail)
        for head, tails in _blocks(family, r, n, prefix)
        for tail in tails
    ]


def _blocks(family: str, r: int, n: int, prefix: Sequence[Partition] | None = None):
    """The listing of :func:`enumerate_zero` as (head, tails) blocks, in order.

    Each block's tableaux are ``head + tail`` for its tails in turn, so the
    sum of the tails' lengths counts the listing without building it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for name, value in (("rank", r), ("length", n)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if r < 1 or n < 0:
        raise ValueError("need rank >= 1 and length >= 0")
    start = [partition(p) for p in prefix] if prefix is not None else [()]
    if not start or start[0] != () or len(start) > n + 1:
        raise ValueError("prefix must start empty and fit the length")
    for p, q in zip(start, start[1:]):
        if q not in _children(family, r, p):
            return
    if n % 2 and family != VACILLATING:
        # a step changes the size of an oscillating tableau, and every part of
        # a fan, by one, so only a vacillating tableau returns to empty in odd n
        return
    if not _feasible(family, start[-1], n - len(start) + 1):
        return
    tails = {((), 0): [()]}  # the one tail with no step left
    yield from _heads(family, r, n, start, max(len(start) - 1, n // 2), tails)


def _heads(family: str, r: int, n: int, steps: list, last: int, tails: dict):
    """Yield, in order, a (head, tails) block for each head that starts with ``steps``.

    The heads are the feasible extensions of ``steps`` to step ``last``,
    listed depth-first; each comes with its :func:`_tails`.
    """
    # not a closure: a recursive closure is a cycle that outlives the call until gc runs
    i = len(steps)
    if i > last:
        yield tuple(steps), _tails(family, r, steps[-1], n - last, tails)
        return
    for q in _children(family, r, steps[-1]):
        if _feasible(family, q, n - i):
            steps.append(q)
            yield from _heads(family, r, n, steps, last, tails)
            steps.pop()


def _tails(family: str, r: int, p: Partition, k: int, memo: dict) -> list[tuple]:
    """Every k steps that lead from p to the empty partition, in order, stored in ``memo``.

    p must be feasible in k steps, so at k == 0 it is empty, whose entry
    the caller seeds.
    """
    key = (p, k)
    out = memo.get(key)
    if out is None:
        out = memo[key] = [
            (q,) + t
            for q in _children(family, r, p)
            if _feasible(family, q, k - 1)
            for t in _tails(family, r, q, k - 1, memo)
        ]
    return out
