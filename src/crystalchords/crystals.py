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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .weights import (
    Partition,
    WeightVec,
    is_partition,
    pad,
    partition,
    trim,
    unit_vector,
    vec_add,
)

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

RAISE = "raise"
LOWER = "lower"


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


def is_letter(kind: str, r: int, x) -> bool:
    if kind == CVEC:
        return isinstance(x, int) and x != 0 and abs(x) <= r
    if kind == BVEC:
        return isinstance(x, int) and abs(x) <= r
    if kind == SPIN:
        return (
            isinstance(x, tuple) and len(x) == r and all(e in (1, -1) for e in x)
        )
    raise ValueError(f"unknown crystal kind {kind!r}")


def letter_weight(kind: str, r: int, x) -> WeightVec:
    """Weight of a letter; spin weights are stored doubled (entries +-1)."""
    if kind == SPIN:
        return x
    if x == 0:
        return (0,) * r
    v = unit_vector(abs(x), r)
    return v if x > 0 else tuple(-c for c in v)


def apply_letter_op(kind: str, r: int, i: int, direction: str, x):
    """Apply e_i (raise) or f_i (lower) to a single letter; None if annihilated."""
    if not 1 <= i <= r:
        raise ValueError(f"operator index {i} out of range 1..{r}")
    if direction not in (RAISE, LOWER):
        raise ValueError(f"direction must be {RAISE!r} or {LOWER!r}")
    lower = direction == LOWER

    if kind == SPIN:
        if i == r:
            want = 1 if lower else -1
            if x[r - 1] == want:
                return x[: r - 1] + (-want,)
            return None
        want = (1, -1) if lower else (-1, 1)
        if (x[i - 1], x[i]) == want:
            return x[: i - 1] + (want[1], want[0]) + x[i + 1 :]
        return None

    # vector crystals: f_i sends i -> i+1 and -(i+1) -> -i, e_i is inverse
    if i < r:
        if lower:
            if x == i:
                return i + 1
            if x == -(i + 1):
                return -i
        else:
            if x == i + 1:
                return i
            if x == -i:
                return -(i + 1)
        return None
    if kind == CVEC:
        if lower:
            return -r if x == r else None
        return r if x == -r else None
    # bvec, i == r: f_r sends r -> 0 -> -r
    if lower:
        if x == r:
            return 0
        if x == 0:
            return -r
    else:
        if x == -r:
            return 0
        if x == 0:
            return r
    return None


def _letter_stat(kind: str, r: int, i: int, direction: str, x) -> int:
    k = 0
    while True:
        x = apply_letter_op(kind, r, i, direction, x)
        if x is None:
            return k
        k += 1


@dataclass(frozen=True)
class Word:
    """A tensor word; ``letters[0]`` is the rightmost factor."""

    kind: str
    rank: int
    letters: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown crystal kind {self.kind!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        for x in self.letters:
            if not is_letter(self.kind, self.rank, x):
                raise ValueError(f"{x!r} is not a {self.kind} letter of rank {self.rank}")

    def __len__(self) -> int:
        return len(self.letters)


def _suffix_stats(w: Word, i: int) -> list[tuple[int, int]]:
    """(eps_i, phi_i) of the sub-tensor u_n (x) ... (x) u_k for k = 1..n.

    Entry ``k - 1`` of the result belongs to the suffix starting at ``u_k``.
    Uses eps(b(x)c) = eps(c) + max(0, eps(b) - phi(c)) and
    phi(b(x)c) = phi(b) + max(0, phi(c) - eps(b)) with b the left part.
    """
    n = len(w)
    stats: list[tuple[int, int]] = [(0, 0)] * n
    eps = _letter_stat(w.kind, w.rank, i, RAISE, w.letters[n - 1])
    phi = _letter_stat(w.kind, w.rank, i, LOWER, w.letters[n - 1])
    stats[n - 1] = (eps, phi)
    for k in range(n - 1, 0, -1):
        c = w.letters[k - 1]
        ec = _letter_stat(w.kind, w.rank, i, RAISE, c)
        pc = _letter_stat(w.kind, w.rank, i, LOWER, c)
        eb, pb = stats[k]
        stats[k - 1] = (ec + max(0, eb - pc), pb + max(0, pc - eb))
    return stats


def string_stats(kind: str, r: int, i: int, w) -> tuple[int, int]:
    """(eps_i, phi_i) of a letter or a word, by repeated application."""
    if isinstance(w, Word):
        if len(w) == 0:
            return (0, 0)
        return _suffix_stats(w, i)[0]
    return (
        _letter_stat(kind, r, i, RAISE, w),
        _letter_stat(kind, r, i, LOWER, w),
    )


def tensor_apply(w: Word, i: int, direction: str) -> Word | None:
    """Apply e_i or f_i to a word via the tensor product rule; None if annihilated.

    f_i(b (x) c) acts on b iff phi_i(c) <= eps_i(b);
    e_i(b (x) c) acts on b iff phi_i(c) < eps_i(b).
    """
    n = len(w)
    if n == 0:
        return None
    stats = _suffix_stats(w, i)
    k = 1
    while k < n:
        c = w.letters[k - 1]
        pc = _letter_stat(w.kind, w.rank, i, LOWER, c)
        eb = stats[k][0]
        if (pc <= eb) if direction == LOWER else (pc < eb):
            k += 1
        else:
            break
    y = apply_letter_op(w.kind, w.rank, i, direction, w.letters[k - 1])
    if y is None:
        return None
    new = w.letters[: k - 1] + (y,) + w.letters[k:]
    return Word(w.kind, w.rank, new)


def word_weight(w: Word) -> WeightVec:
    """Sum of letter weights (spin letters contribute doubled weights)."""
    total = (0,) * w.rank
    for x in w.letters:
        total = vec_add(total, letter_weight(w.kind, w.rank, x))
    return total


def is_highest(w: Word) -> bool:
    """True iff every raising operator annihilates the word."""
    return all(tensor_apply(w, i, RAISE) is None for i in range(1, w.rank + 1))


def prefix_weights(w: Word) -> list[WeightVec]:
    """Partial weight sums over u_1..u_q for q = 0..n."""
    out = [(0,) * w.rank]
    for x in w.letters:
        out.append(vec_add(out[-1], letter_weight(w.kind, w.rank, x)))
    return out


def all_prefixes_dominant(w: Word) -> bool:
    """Prefix-dominance test; equivalent to is_highest for the minuscule kinds."""
    return all(
        all(a >= b for a, b in zip(mu, mu[1:])) and mu[-1] >= 0
        for mu in prefix_weights(w)[1:]
    )


@dataclass(frozen=True)
class TableauSeq:
    """A tagged sequence of partitions starting at the empty partition."""

    family: str
    rank: int
    steps: tuple[Partition, ...]

    def __post_init__(self):
        validate_tableau(self)

    def __len__(self) -> int:
        return len(self.steps) - 1

    @property
    def weight(self) -> Partition:
        return self.steps[-1]


def tableau(family: str, rank: int, steps: Sequence[Sequence[int]]) -> TableauSeq:
    return TableauSeq(family, rank, tuple(partition(s) for s in steps))


def validate_tableau(t: TableauSeq) -> None:
    if t.family not in FAMILIES:
        raise ValueError(f"unknown family {t.family!r}")
    if t.rank < 1:
        raise ValueError("rank must be positive")
    if not t.steps or t.steps[0] != ():
        raise ValueError("step sequence must start at the empty partition")
    for p in t.steps:
        if not (isinstance(p, tuple) and is_partition(p) and (not p or p[-1] != 0)):
            raise ValueError(f"{p!r} is not a canonical partition")
        if len(p) > t.rank:
            raise ValueError(f"{p} has more than {t.rank} parts")
    padded = [p + (0,) * (t.rank - len(p)) for p in t.steps]
    for a, b in zip(padded, padded[1:]):
        check_step(t.family, a, b)


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
    """Partial weight sums of a highest weight word, as a tableau."""
    if not is_highest(w):
        raise ValueError("word is not highest weight")
    family = {CVEC: OSCILLATING, SPIN: FAN, BVEC: VACILLATING}[w.kind]
    steps = tuple(trim(mu) for mu in prefix_weights(w))
    return TableauSeq(family, w.rank, steps)


def tableau_to_word(t: TableauSeq) -> Word:
    """Inverse of :func:`word_to_tableau`."""
    kind = FAMILY_KIND[t.family]
    out = []
    for p, q in zip(t.steps, t.steps[1:]):
        diff = tuple(b - a for a, b in zip(pad(p, t.rank), pad(q, t.rank)))
        if kind == SPIN:
            out.append(diff)
        else:
            rows = [j + 1 for j, d in enumerate(diff) if d != 0]
            if not rows:
                out.append(0)
            elif diff[rows[0] - 1] == 1:
                out.append(rows[0])
            else:
                out.append(-rows[0])
    return Word(kind, t.rank, tuple(out))


def _children(family: str, r: int, p: Partition) -> list[Partition]:
    """Possible next steps after p, in lexicographic order."""
    out: set[Partition] = set()
    if family == FAN:
        pp = pad(p, r)
        for bits in range(1 << r):
            q = tuple(pp[j] + (1 if bits & (1 << j) else -1) for j in range(r))
            if all(a >= b for a, b in zip(q, q[1:])) and q[-1] >= 0:
                out.add(trim(q))
        return sorted(out)
    # single-box moves, shared by oscillating and vacillating
    pp = pad(p, min(r, len(p) + 1))
    for k in range(len(pp)):
        up = pp[:k] + (pp[k] + 1,) + pp[k + 1 :]
        if is_partition(up):
            out.add(trim(up))
        down = pp[:k] + (pp[k] - 1,) + pp[k + 1 :]
        if pp[k] > 0 and is_partition(down):
            out.add(trim(down))
    if family == VACILLATING and len(p) == r:
        out.add(p)
    return sorted(out)


def _feasible(family: str, r: int, p: Partition, remaining: int) -> bool:
    """Can p still reach the empty partition in the remaining steps?"""
    size = sum(p)
    if family == FAN:
        return all(x <= remaining and (x - remaining) % 2 == 0 for x in pad(p, r))
    if family == OSCILLATING:
        return size <= remaining and (size - remaining) % 2 == 0
    return size <= remaining


def enumerate_zero(
    family: str, r: int, n: int, prefix: Sequence[Partition] | None = None
) -> list[TableauSeq]:
    """All weight-zero members of the family, in lexicographic step order.

    ``prefix`` fixes the first steps (starting at the empty partition), so
    workers given disjoint prefixes partition the search space; concatenating
    their outputs in prefix order reproduces the full listing.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if r < 1 or n < 0:
        raise ValueError("need rank >= 1 and length >= 0")
    start = [partition(p) for p in prefix] if prefix is not None else [()]
    if not start or start[0] != () or len(start) > n + 1:
        raise ValueError("prefix must start empty and fit the length")
    results: list[TableauSeq] = []

    def extend(steps: list[Partition], remaining: int) -> None:
        if remaining == 0:
            results.append(TableauSeq(family, r, tuple(steps)))
            return
        for q in _children(family, r, steps[-1]):
            if _feasible(family, r, q, remaining - 1):
                steps.append(q)
                extend(steps, remaining - 1)
                steps.pop()

    for p, q in zip(start, start[1:]):
        if q not in _children(family, r, p):
            return []
    if _feasible(family, r, start[-1], n - len(start) + 1):
        extend(start, n - len(start) + 1)
    return results


def iter_words(kind: str, r: int, n: int) -> Iterator[Word]:
    """All words of the crystal of the given length (for brute-force checks)."""
    alphabet = letters(kind, r)

    def rec(prefix: tuple) -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(kind, r, prefix)
            return
        for x in alphabet:
            yield from rec(prefix + (x,))

    yield from rec(())
