"""Energy statistics, exact q-polynomials and the cyclic sieving checker.

Polynomials are tuples of integer coefficients indexed by exponent, with
trailing zeros trimmed; all arithmetic is exact.  The sieving criterion is
purely integral: a polynomial f sieves for an action of order N on X iff
f mod (q^N - 1) equals the orbit polynomial sum_orbits sum_j q^(j N / s).

The local energy of B_r spin letters a (x) b (a the left factor) is ceil(k / 2),
where k is the largest value over j = 0..r of the number of minus signs among
a_1..a_j minus the number among b_1..b_j.  No raising operator changes k (check
the signature rule at positions i, i + 1), and at the classical highest weight
(+^(r-k) -^k) (x) (+^r), where H = ceil(k / 2) by definition, k counts the
minus signs of the left factor.

:func:`energy` reads each H from one lazily filled table of letter pairs per
(kind, rank), and its words are read off canonical steps through the step
table of :mod:`crystals`, so neither pads, subtracts nor recomputes H per
call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache
from operator import attrgetter, mul
from typing import Callable, Iterable, Sequence

from .crystals import (
    BVEC,
    CVEC,
    FAMILY_KIND,
    SPIN,
    TableauSeq,
    Word,
    _position_of,
    _Table,
    enumerate_zero,
    is_letter,
    tableau_to_word,
    word_to_tableau,
)
from .promotion import promote
from .weights import trim

Poly = tuple[int, ...]


# ---------------------------------------------------------------- polynomials


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def poly_divexact(p: Sequence[int], q: Sequence[int]) -> Poly:
    """Exact division; raises if the remainder is nonzero."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(trim(p))
    out = [0] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        lead, div = rem[-1], q[-1]
        if lead % div:
            raise ValueError("division is not exact")
        c = lead // div
        k = len(rem) - len(q)
        out[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
        while rem and rem[-1] == 0:
            rem.pop()
    if rem:
        raise ValueError("division is not exact")
    return trim(out)


def poly_mod_cyclic(p: Sequence[int], n: int) -> Poly:
    """Residue modulo q^n - 1 (exponents folded mod n)."""
    if n < 1:
        raise ValueError("modulus exponent must be positive")
    out = [0] * n
    for e, c in enumerate(p):
        out[e % n] += c
    return trim(out)


def q_int(m: int) -> Poly:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return (1,) * m


def poly_count(exponents: Iterable[int]) -> Poly:
    """Sum of q^e over the exponents, with multiplicity."""
    counts = Counter(exponents)
    return tuple(counts[e] for e in range(max(counts, default=-1) + 1))


def poly_str(p: Sequence[int]) -> str:
    """Descending-power pretty form, e.g. 'q^4 + q^2 + 1'."""
    p = trim(p)
    if not p:
        return "0"
    terms = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if not c:
            continue
        if e == 0:
            base = str(abs(c))
        else:
            q = "q" if e == 1 else f"q^{e}"
            base = q if abs(c) == 1 else f"{abs(c)}*{q}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, base))
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, base in terms[1:]:
        out += f" {sign} {base}"
    return out


# -------------------------------------------------------------------- energy


def local_energy(kind: str, r: int, a, b) -> int:
    """Local energy of the pair a (x) b (a the left factor)."""
    for x in (a, b):
        if not is_letter(kind, r, x):
            raise ValueError(f"{x!r} is not a {kind} letter of rank {r}")
    return _pair_energy(kind, r, a, b)


def _pair_energy(kind: str, r: int, a, b) -> int:
    """:func:`local_energy` of two letters of the crystal, unchecked."""
    if kind == CVEC:
        position = _position_of(CVEC, r)
        return 0 if position[a] <= position[b] else 1
    if kind == BVEC:
        if a == -1 and b == 1:
            return 2
        position = _position_of(BVEC, r)
        if position[a] <= position[b] and not (a == 0 and b == 0):
            return 0
        return 1
    k = excess = 0
    for x, y in zip(a, b):
        excess += (y - x) // 2
        if excess > k:
            k = excess
    return (k + 1) // 2


def energy(w: Word) -> int:
    """Sum of i * H(b_i (x) b_{i+1}) with b_1 the leftmost tensor factor."""
    x = w.letters
    n = len(x)
    # b_i = letters[n - i]: reading the tensor left to right, the pair
    # (letters[j + 1], letters[j]) is b_i (x) b_{i+1} with i = n - 1 - j; a
    # Word's letters were checked when it was built
    pairs = map(_pair_energies(w.kind, w.rank).__getitem__, zip(x[1:], x))
    return sum(map(mul, range(n - 1, 0, -1), pairs))


@cache
def _pair_energies(kind: str, r: int) -> _Table:
    """:func:`local_energy` of each pair (a, b) of letters, filled on first use."""
    return _Table(lambda pair: _pair_energy(kind, r, *pair))


# ------------------------------------------------------------ q-polynomials


def energy_shift(kind: str, r: int, n: int) -> int:
    """Exponent of the overall q-power in front of the energy generating sum."""
    if kind == BVEC:
        return 0
    if kind == SPIN:
        return 0 if r % 4 in (0, 3) else n // 2
    if kind == CVEC:
        return n // 2
    raise ValueError(f"unknown crystal kind {kind!r}")


def f_poly(family: str, r: int, n: int) -> Poly:
    """Energy generating polynomial over weight-zero highest words."""
    return energy_poly(family, r, n, enumerate_zero(family, r, n))


def energy_poly(family: str, r: int, n: int, elements: Sequence[TableauSeq]) -> Poly:
    """:func:`f_poly` summed over a given listing of the weight-zero members."""
    # weight zero forces n even whenever the shift is n/2 (cvec and spin)
    shift = energy_shift(FAMILY_KIND[family], r, n)
    return poly_count(shift + energy(tableau_to_word(t)) for t in elements)


def g_poly(n: int, r: int) -> Poly:
    """prod over 1 <= i <= j <= n-1 of [i+j+2r]_q / [i+j]_q, exactly."""
    if n < 1 or r < 1:
        raise ValueError("need n, r >= 1")
    num: Poly = (1,)
    den: Poly = (1,)
    for i in range(1, n):
        for j in range(i, n):
            num = poly_mul(num, q_int(i + j + 2 * r))
            den = poly_mul(den, q_int(i + j))
    return poly_divexact(num, den)


# -------------------------------------------------------- descents and major


def descent_major(w: Word) -> tuple[tuple[int, ...], int]:
    """Descent set and major index of a highest weight B-vector word.

    Position i (1-based, counting from the rightmost factor u_1) is a descent
    when u_{i+1} > u_i, unless u_{i+1} (x) u_i = j-bar (x) j while u_1..u_{i-1}
    balances the letters j and j-bar.
    """
    if w.kind != BVEC:
        raise ValueError("descents are defined for bvec words")
    word_to_tableau(w)  # raises unless w is highest weight
    descents = _descents(w)
    return descents, sum(descents)


def _descents(w: Word) -> tuple[int, ...]:
    """Descent set of :func:`descent_major`, for a word known to be a highest weight bvec word."""
    position = _position_of(BVEC, w.rank)
    descents = []
    for i in range(1, len(w)):
        u_i, u_next = w.letters[i - 1], w.letters[i]
        if position[u_next] <= position[u_i]:
            continue
        if u_i > 0 and u_next == -u_i:
            j = u_i
            prefix = w.letters[: i - 1]
            if prefix.count(j) == prefix.count(-j):
                continue
        descents.append(i)
    return tuple(descents)


def h_poly(n: int, r: int) -> Poly:
    """Major-index generating polynomial over weight-zero highest bvec words."""
    return major_poly(enumerate_zero("vacillating", r, n))


def major_poly(elements: Sequence[TableauSeq]) -> Poly:
    """:func:`h_poly` summed over a given listing of vacillating tableaux."""
    # the word of a tableau is highest weight by construction, so it skips
    # the check of descent_major
    return poly_count(sum(_descents(tableau_to_word(t))) for t in elements)


def _partitions_of(n: int, parts_filter: Callable[[int], bool], max_len: int):
    def rec(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            yield acc
            return
        if len(acc) == max_len:
            return
        for part in range(min(rest, cap), 0, -1):
            if parts_filter(part):
                yield from rec(rest - part, part, acc + (part,))

    yield from rec(n, n, ())


def _standard_tableaux(shape: tuple[int, ...]):
    """All standard Young tableaux of the shape, as row-index words."""
    n = sum(shape)

    def rec(rows: tuple[int, ...], word: tuple[int, ...]):
        if len(word) == n:
            yield word
            return
        for k in range(len(shape)):
            if rows[k] < shape[k] and (k == 0 or rows[k] < rows[k - 1]):
                yield from rec(
                    rows[:k] + (rows[k] + 1,) + rows[k + 1 :], word + (k,)
                )

    yield from rec((0,) * len(shape), ())


def syt_h_poly(n: int, r: int) -> Poly:
    """Major-index generating polynomial over standard Young tableaux.

    Shapes are the partitions of n with all parts even and at most 2r+1 rows
    for even n, and all parts odd with exactly 2r+1 rows for odd n.
    """
    if n % 2 == 0:
        shapes = list(_partitions_of(n, lambda p: p % 2 == 0, 2 * r + 1))
    else:
        shapes = [
            s
            for s in _partitions_of(n, lambda p: p % 2 == 1, 2 * r + 1)
            if len(s) == 2 * r + 1
        ]
    return poly_count(
        sum(i for i in range(1, n) if word[i] > word[i - 1])
        for shape in shapes
        for word in _standard_tableaux(shape)
    )


# ------------------------------------------------------------------- sieving


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[TableauSeq, int], ...]  # (representative, size)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.orbits)


def orbit_decomposition(
    elements: Sequence[TableauSeq],
    order: int,
    action: Callable[[TableauSeq], TableauSeq] = promote,
) -> OrbitDecomposition:
    """Orbits of the action; raises if an orbit size does not divide the order.

    Also raises if the action leaves the set or, not being injective, walks
    from some t into a cycle that misses t: such a walk would go on forever,
    so it is cut once the orbit would outgrow the set.
    """
    # plain tuples hash and compare in C; the frozen dataclass's own
    # __hash__ and __eq__ are Python functions that rebuild this tuple each call
    key = attrgetter("family", "rank", "steps")
    # each distinct element numbered in order of first appearance, so an
    # element listed twice is one element; an element's key is hashed once
    # here and once when the action reaches it
    index: dict[tuple, int] = {}
    distinct = []
    for t in elements:
        if index.setdefault(key(t), len(distinct)) == len(distinct):
            distinct.append(t)
    seen = bytearray(len(distinct))
    orbits = []
    for i, t in enumerate(distinct):
        if seen[i]:
            continue
        size = 1
        cur = action(t)
        j = index.get(key(cur))
        while j != i:
            if j is None:
                raise ValueError(f"action leaves the set on {t}")
            if size == len(distinct):
                raise ValueError(
                    f"action does not return to {t} within {len(distinct)} steps"
                )
            seen[j] = 1
            size += 1
            cur = action(cur)
            j = index.get(key(cur))
        if order % size:
            raise ValueError(f"orbit size {size} does not divide the order {order}")
        orbits.append((t, size))
    return OrbitDecomposition(tuple(orbits))


@dataclass(frozen=True)
class CspReport:
    holds: bool
    order: int
    orbit_sizes: tuple[int, ...]
    residue: Poly  # f mod q^order - 1
    expected_residue: Poly  # orbit polynomial
    first_mismatch_d: int | None

    def to_json(self) -> dict:
        # dump_json writes the tuples as arrays
        return asdict(self)


def orbit_polynomial(sizes: Sequence[int], order: int) -> Poly:
    """Sum over orbits of size s of sum_j q^(j * order / s).

    Evaluating at a primitive order-th root of unity to the power d gives the
    number of fixed points of the d-th power of the action.
    """
    return poly_count(j * order // s for s in sizes for j in range(s))


def csp_check(
    elements: Sequence[TableauSeq],
    order: int,
    f: Sequence[int],
    action: Callable[[TableauSeq], TableauSeq] = promote,
) -> CspReport:
    """Integer cyclic sieving test of the polynomial f against the action."""
    dec = orbit_decomposition(elements, order, action)
    expected = orbit_polynomial(dec.sizes, order)
    residue = poly_mod_cyclic(f, order) if trim(f) else ()
    holds = residue == expected
    first = None
    if not holds:
        top = max(len(residue), len(expected))
        for d in range(top):
            a = residue[d] if d < len(residue) else 0
            b = expected[d] if d < len(expected) else 0
            if a != b:
                first = d
                break
    return CspReport(holds, order, dec.sizes, residue, expected, first)
