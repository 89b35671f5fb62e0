"""Reference definitions the library's fast paths are tested against.

Each oracle is the plain statement of a definition, kept here because
nothing in the library needs it once the fast path exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Sequence

from crystalchords.crystals import (
    CVEC,
    FAMILIES,
    FAN,
    OSCILLATING,
    SPIN,
    VACILLATING,
    TableauSeq,
    Word,
    _children,
    _feasible,
    letter_weight,
    letters,
)
from crystalchords.growth import (
    _FAMILY_RULE,
    _RULES,
    _check_adjacent,
    _meet,
    _remove_box,
    blocksum,
)
from crystalchords.sieving import Poly
from crystalchords.virtual import (
    iota_v_to_f,
    iota_inverse,
    iota_v_to_o,
    psi_spin,
    psi_vec,
)
from crystalchords.weights import (
    Matrix,
    Partition,
    WeightVec,
    dominant_representative,
    is_partition,
    pad,
    partition,
    trim,
)


# ------------------------------------------------------------ promotion


@dataclass(frozen=True)
class PromotionGrid:
    """Successive promotions of a weight-zero tableau, addressed modularly."""

    length: int
    rank: int
    rows: tuple[tuple[Partition, ...], ...]  # rows[i] = steps of pr^i(T)

    def entry(self, i: int, j: int) -> Partition:
        """mu^{i,j}: the (j-i)-th entry of pr^i(T), indices mod length."""
        n = self.length
        return self.rows[i % n][(j - i) % n]


def fill_value(rule: str, lam, kap, nu) -> int:
    """Number of negative entries of kappa + nu - lambda (osc: capped at one)."""
    n = max(len(lam), len(kap), len(nu))
    diff = vec_add(pad(kap, n), vec_sub(pad(nu, n), pad(lam, n)))
    negatives = sum(1 for x in diff if x < 0)
    if rule == "osc":
        return 1 if negatives else 0
    if rule == "fan":
        return negatives
    raise ValueError(f"unknown filling rule {rule!r}")


def local_rule(lam: WeightVec, kap: WeightVec, nu: WeightVec) -> Partition:
    """dom(kappa + nu - lambda) for equal-length weight vectors."""
    if not len(lam) == len(kap) == len(nu):
        raise ValueError("weight vectors must have equal length")
    return dominant_representative(vec_add(kap, vec_sub(nu, lam)))


def promote_steps(steps, r: int):
    """One local-rule promotion sweep, padding and trimming at every cell."""
    n = len(steps) - 1
    if n == 0:
        return steps
    out = [()]
    for j in range(1, n):
        out.append(trim(local_rule(pad(steps[j], r), pad(out[j - 1], r), pad(steps[j + 1], r))))
    out.append(())
    return tuple(out)


def promote_vacillating(t: TableauSeq) -> TableauSeq:
    """Vacillating promotion as iota_inverse((VACILLATING, OSCILLATING), pr_O^2(iota_v_to_o(t)))."""
    steps = promote_steps(promote_steps(iota_v_to_o(t).steps, t.rank), t.rank)
    return iota_inverse((VACILLATING, OSCILLATING), TableauSeq(OSCILLATING, t.rank, steps))


def promotion_grid(t) -> PromotionGrid:
    """Rows pr^0(T)..pr^(n-1)(T) of an oscillating or fan tableau, each one validated."""
    rows = []
    steps = t.steps
    for _ in range(len(t)):
        rows.append(steps)
        steps = promote_steps(steps, t.rank)
        validate_tableau(SimpleNamespace(family=t.family, rank=t.rank, steps=steps))
    return PromotionGrid(len(t), t.rank, tuple(rows))


def promotion_fill(t, rule: str):
    """The promotion-matrix filling read cell by cell off the promotion grid."""
    grid = promotion_grid(t)
    n = grid.length
    return tuple(
        tuple(
            fill_value(
                rule,
                grid.entry(i - 1, j - 1),
                grid.entry(i, j - 1),
                grid.entry(i - 1, j),
            )
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def chord_matrix(tag: str, t):
    """The chord maps defined through the two-pass promotion filling."""
    if tag == "M_O":
        return promotion_fill(t, "osc")
    if tag == "M_F":
        return promotion_fill(t, "fan")
    if tag == "M_VO":
        return blocksum(promotion_fill(iota_v_to_o(t), "osc"), 2)
    if tag == "M_VF":
        raw = blocksum(promotion_fill(iota_v_to_f(t), "fan"), 2)
        shift = 2 * (t.rank - 1)
        return tuple(
            tuple(x - shift if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(raw)
        )
    raise ValueError(f"unknown chord map {tag!r}")


def validate_tableau(t) -> None:
    """Tableau validation that classifies every step with ``step_classify``."""
    if t.family not in FAMILIES:
        raise ValueError(f"unknown family {t.family!r}")
    if t.rank < 1:
        raise ValueError("rank must be positive")
    if not t.steps or t.steps[0] != ():
        raise ValueError("step sequence must start at the empty partition")
    for p in t.steps:
        if not (isinstance(p, tuple) and is_partition(p) and trim(p) == p):
            raise ValueError(f"{p!r} is not a canonical partition")
        if len(p) > t.rank:
            raise ValueError(f"{p} has more than {t.rank} parts")
    for p, q in zip(t.steps, t.steps[1:]):
        validate_step(t.family, t.rank, p, q)


def validate_step(family: str, r: int, p: Partition, q: Partition) -> None:
    """The step check of :func:`validate_tableau`, for canonical partitions p and q."""
    kind, _ = step_classify(p, q)
    if family == OSCILLATING:
        if kind not in ("add_box", "remove_box"):
            raise ValueError(f"oscillating step {p} -> {q} must add or remove one box")
    elif family == FAN:
        diff = set(a - b for a, b in zip(pad(q, r), pad(p, r)))
        if not diff <= {1, -1}:
            raise ValueError(f"fan step {p} -> {q} must change every part by one")
    else:  # vacillating
        if kind == "equal":
            if len(p) != r:
                raise ValueError(f"vacillating step may repeat {p} only with all {r} parts positive")
        elif kind not in ("add_box", "remove_box"):
            raise ValueError(f"vacillating step {p} -> {q} must be a box or equal")


def spin_pair_energy_by_raising(r: int, a, b) -> int:
    """Local energy of spin letters a (x) b (a the left factor), by classical raising.

    Raises the pair to its classical highest weight (+^(r-k) -^k) (x) (+^r),
    along which the local energy is constant, and returns ceil(k / 2).
    """
    w = Word(SPIN, r, (b, a))  # left factor last
    limit = 4 * r * (r + 1)
    for _ in range(limit):
        for i in range(1, r + 1):
            up = tensor_apply(w, i, RAISE)
            if up is not None:
                w = up
                break
        else:
            break
    else:
        raise AssertionError("classical raising did not terminate")
    right, left = w.letters
    assert right == (1,) * r, "classical highest weight pair must end in all +"
    minus = sum(1 for s in left if s == -1)
    return (minus + 1) // 2


# ------------------------------------------------------------ weights


def vec_add(u: Sequence[int], v: Sequence[int]) -> WeightVec:
    """Entrywise sum, the shorter vector padded with zeros."""
    n = max(len(u), len(v))
    u, v = pad(u, n), pad(v, n)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> WeightVec:
    """Entrywise difference, the shorter vector padded with zeros."""
    n = max(len(u), len(v))
    u, v = pad(u, n), pad(v, n)
    return tuple(a - b for a, b in zip(u, v))


def unit_vector(i: int, r: int) -> WeightVec:
    """Standard basis vector e_i (1-based position) in Z^r."""
    if not 1 <= i <= r:
        raise ValueError(f"position {i} out of range 1..{r}")
    return tuple(1 if j == i else 0 for j in range(1, r + 1))


def box_partitions(rows: int, cols: int) -> list[Partition]:
    """Every partition that fits in a rows x cols box."""
    return [
        tuple(x for x in c if x)
        for c in itertools.combinations_with_replacement(range(cols, -1, -1), rows)
    ]


def step_classify(p: Sequence[int], q: Sequence[int]) -> tuple[str, int | None]:
    """Finest relation of q relative to p.

    Returns one of ``("equal", None)``, ``("add_box", row)``,
    ``("remove_box", row)``, ``("vertical_strip", None)``,
    ``("horizontal_strip", None)`` or ``("other", None)``.  Rows are 1-based.
    Strip kinds apply only in the growing direction p <= q; a skew shape that
    is both kinds of strip reports as vertical.
    """
    p, q = partition(p), partition(q)
    if p == q:
        return ("equal", None)
    n = max(len(p), len(q))
    pp, qq = pad(p, n), pad(q, n)
    diff = [b - a for a, b in zip(pp, qq)]
    changed = [i for i, d in enumerate(diff) if d != 0]
    if len(changed) == 1 and diff[changed[0]] == 1:
        return ("add_box", changed[0] + 1)
    if len(changed) == 1 and diff[changed[0]] == -1:
        return ("remove_box", changed[0] + 1)
    if all(d >= 0 for d in diff):
        if all(d <= 1 for d in diff):
            return ("vertical_strip", None)
        # horizontal strip: at most one new cell per column, i.e. q interleaves p
        if all(qq[i + 1] <= pp[i] for i in range(n - 1)):
            return ("horizontal_strip", None)
    return ("other", None)


@dataclass(frozen=True)
class RootSystemData:
    """Simple roots of type B_r or C_r in the standard coordinates."""

    type_tag: str  # "B" or "C"
    rank: int
    simple_roots: tuple[WeightVec, ...]


def root_system(type_tag: str, rank: int) -> RootSystemData:
    if type_tag not in ("B", "C"):
        raise ValueError(f"unknown type {type_tag!r}")
    if rank < 1:
        raise ValueError("rank must be positive")
    roots = []
    for i in range(1, rank):
        roots.append(vec_sub(unit_vector(i, rank), unit_vector(i + 1, rank)))
    last = unit_vector(rank, rank)
    if type_tag == "C":
        last = tuple(2 * x for x in last)
    roots.append(last)
    return RootSystemData(type_tag, rank, tuple(roots))


def union_parts(p: Sequence[int], q: Sequence[int]) -> Partition:
    """Row-wise sum of two partitions (so ``union_parts(d, d)`` is 2d)."""
    return trim(vec_add(p, q))


def intersect_parts(p: Sequence[int], q: Sequence[int]) -> Partition:
    """Row-wise minimum of two partitions."""
    n = max(len(p), len(q))
    return trim(tuple(min(a, b) for a, b in zip(pad(p, n), pad(q, n))))


# ------------------------------------------------------------ crystals

RAISE = "raise"
LOWER = "lower"


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


def suffix_stats(w: Word, i: int) -> list[tuple[int, int]]:
    """(eps_i, phi_i) of the sub-tensor u_n (x) ... (x) u_k for k = 1..n.

    Entry ``k - 1`` of the result belongs to the suffix starting at ``u_k``.
    Uses eps(b(x)c) = eps(c) + max(0, eps(b) - phi(c)) and
    phi(b(x)c) = phi(b) + max(0, phi(c) - eps(b)) with b the left part.
    """
    n = len(w)
    stats: list[tuple[int, int]] = [(0, 0)] * n
    stats[n - 1] = string_stats(w.kind, w.rank, i, w.letters[n - 1])
    for k in range(n - 1, 0, -1):
        ec, pc = string_stats(w.kind, w.rank, i, w.letters[k - 1])
        eb, pb = stats[k]
        stats[k - 1] = (ec + max(0, eb - pc), pb + max(0, pc - eb))
    return stats


def tensor_apply(w: Word, i: int, direction: str) -> Word | None:
    """Apply e_i or f_i to a word via the tensor product rule; None if annihilated.

    f_i(b (x) c) acts on b iff phi_i(c) <= eps_i(b);
    e_i(b (x) c) acts on b iff phi_i(c) < eps_i(b).
    """
    n = len(w)
    if n == 0:
        return None
    stats = suffix_stats(w, i)
    k = 1
    while k < n:
        pc = string_stats(w.kind, w.rank, i, w.letters[k - 1])[1]
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


def is_highest(w: Word) -> bool:
    """The definition: every raising operator annihilates the word."""
    return all(tensor_apply(w, i, RAISE) is None for i in range(1, w.rank + 1))


def prefix_weights(w: Word) -> list[WeightVec]:
    """Partial weight sums over u_1..u_q for q = 0..n."""
    out = [(0,) * w.rank]
    for x in w.letters:
        out.append(vec_add(out[-1], letter_weight(w.kind, w.rank, x)))
    return out


def word_weight(w: Word) -> WeightVec:
    """Sum of letter weights (spin letters contribute doubled weights)."""
    return prefix_weights(w)[-1]


def fan_children(r: int, p: Partition) -> list[Partition]:
    """Fan steps after p: all 2^r sign vectors tried, then sorted and de-duplicated."""
    out: set[Partition] = set()
    pp = pad(p, r)
    for bits in range(1 << r):
        q = tuple(pp[j] + (1 if bits & (1 << j) else -1) for j in range(r))
        if all(a >= b for a, b in zip(q, q[1:])) and q[-1] >= 0:
            out.add(trim(q))
    return sorted(out)


def children_by_validation(family: str, r: int, p: Partition) -> list[Partition]:
    """Next steps after p by brute force, sorted.

    The candidates are the partitions within one of p in each coordinate,
    and the step check of :func:`validate_tableau` decides which are kept.
    """
    out = []
    for q in itertools.product(*[(x - 1, x, x + 1) for x in pad(p, r)]):
        if not is_partition(q):
            continue
        try:
            validate_step(family, r, p, trim(q))
        except ValueError:
            continue
        out.append(trim(q))
    return sorted(out)


def enumerate_zero_validated(family: str, r: int, n: int) -> list[TableauSeq]:
    """Weight-zero tableaux by brute force, each prefix validated, in lexicographic order.

    Every part moves by at most one per step, so from p the candidates are
    the partitions within one of p in each coordinate, none of whose parts
    exceeds the number of steps left to return to the empty partition.
    """
    out = []

    def extend(steps):
        if len(steps) == n + 1:
            if steps[-1] == ():
                out.append(TableauSeq(family, r, tuple(steps)))
            return
        remaining = n - len(steps)
        for q in itertools.product(*[(x - 1, x, x + 1) for x in pad(steps[-1], r)]):
            if not is_partition(q) or max(q) > remaining:
                continue
            nxt = steps + [trim(q)]
            try:
                validate_tableau(SimpleNamespace(family=family, rank=r, steps=tuple(nxt)))
            except ValueError:
                continue
            extend(nxt)

    extend([()])
    return sorted(out, key=lambda t: t.steps)


def enumerate_zero_by_dfs(
    family: str, r: int, n: int, prefix: Sequence[Partition] = ((),)
) -> list[TableauSeq]:
    """The listing by one depth-first search over all n steps, tableau by tableau.

    The library's search before it split each tableau into a head and a
    memoised tail: same next steps, same feasibility cut, same order.
    """
    start = [partition(p) for p in prefix]
    if any(q not in _children(family, r, p) for p, q in zip(start, start[1:])):
        return []
    if n % 2 and family != VACILLATING:
        return []
    results: list[TableauSeq] = []
    if _feasible(family, start[-1], n - len(start) + 1):
        _extend(family, r, start, n - len(start) + 1, results)
    return results


def _extend(family: str, r: int, steps: list, remaining: int, results: list) -> None:
    if remaining == 0:
        results.append(TableauSeq._trusted(family, r, tuple(steps)))
        return
    for q in _children(family, r, steps[-1]):
        if _feasible(family, q, remaining - 1):
            steps.append(q)
            _extend(family, r, steps, remaining - 1, results)
            steps.pop()


def iter_words(kind: str, r: int, n: int) -> Iterator[Word]:
    """All words of the crystal of the given length (for brute-force checks)."""
    for combo in itertools.product(letters(kind, r), repeat=n):
        yield Word(kind, r, combo)


def string_stats(kind: str, r: int, i: int, w) -> tuple[int, int]:
    """(eps_i, phi_i) of a letter or a word, by repeated application."""
    stats = []
    for direction in (RAISE, LOWER):
        k, x = -1, w
        while x is not None:
            k += 1
            if isinstance(w, Word):
                x = tensor_apply(x, i, direction)
            else:
                x = apply_letter_op(kind, r, i, direction, x)
        stats.append(k)
    return tuple(stats)


def all_prefixes_dominant(w: Word) -> bool:
    """Prefix-dominance test; equivalent to is_highest for the minuscule kinds."""
    return all(
        all(a >= b for a, b in zip(mu, mu[1:])) and mu[-1] >= 0
        for mu in prefix_weights(w)[1:]
    )


# ------------------------------------------------------------ virtualization


def iota_f_to_o_by_letters(f: TableauSeq) -> TableauSeq:
    """The fan->oscillating embedding, adding one C-letter weight at a time."""
    r = f.rank
    steps = [()]
    for p, q in zip(f.steps, f.steps[1:]):
        eps = tuple(b - a for a, b in zip(pad(p, r), pad(q, r)))
        mu = pad(p, r)
        for v in psi_spin(eps, r):
            e = unit_vector(abs(v), r)
            mu = vec_add(mu, e) if v > 0 else vec_sub(mu, e)
            steps.append(trim(mu))
    return TableauSeq(OSCILLATING, r, tuple(steps))


def iota_v_to_o_by_cases(v: TableauSeq) -> TableauSeq:
    """The vacillating->oscillating embedding: between steps p and q sits p + q, less e_r when p = q."""
    r = v.rank
    e_r = unit_vector(r, r)
    steps = [()]
    for p, q in zip(v.steps, v.steps[1:]):
        pp, qq = pad(p, r), pad(q, r)
        odd = vec_add(pp, qq)
        if p == q:
            odd = vec_sub(odd, e_r)
        steps.append(trim(odd))
        steps.append(trim(tuple(2 * x for x in qq)))
    return TableauSeq(OSCILLATING, r, tuple(steps))


def iota_v_to_f_by_cases(v: TableauSeq) -> TableauSeq:
    """The vacillating->fan embedding, one case per kind of vacillating step."""
    r = v.rank
    ones = (1,) * r
    e_r = unit_vector(r, r)
    steps = [()]
    for p, q in zip(v.steps, v.steps[1:]):
        pp, qq = pad(p, r), pad(q, r)
        if p == q:
            odd = vec_sub(vec_add(tuple(2 * x for x in pp), ones), tuple(2 * x for x in e_r))
        elif sum(qq) > sum(pp):
            odd = vec_add(tuple(2 * x for x in pp), ones)
        else:
            odd = vec_add(tuple(2 * x for x in qq), ones)
        steps.append(trim(odd))
        steps.append(trim(tuple(2 * x for x in qq)))
    return TableauSeq(FAN, r, tuple(steps))


def virtual_apply(w: Word, i: int, direction: str) -> Word | None:
    """The virtual operator on C-words: the square of e_i/f_i below index r."""
    if w.kind != CVEC:
        raise ValueError("virtual operators act on cvec words")
    power = 1 if i == w.rank else 2
    for _ in range(power):
        w = tensor_apply(w, i, direction)
        if w is None:
            return None
    return w


def spin_word_image(w: Word) -> Word:
    """Concatenate psi_spin letter images into one C-word (rightmost factor first)."""
    out: list = []
    for x in w.letters:
        out.extend(psi_spin(x, w.rank))
    return Word(CVEC, w.rank, tuple(out))


def bvec_word_image(w: Word) -> Word:
    """Concatenate psi_vec letter images into one C-word (rightmost factor first)."""
    out: list = []
    for x in w.letters:
        out.extend(psi_vec(x, w.rank))
    return Word(CVEC, w.rank, tuple(out))


# ------------------------------------------------------------ growth and sieving


def growth_sweep_by_cells(t: TableauSeq):
    """Corners and fillings of the triangular growth diagram, cell by cell.

    Corners live in a dict keyed by (i, j), seeded on the hypotenuse (i, i)
    and the first subdiagonal (i + 1, i); every cell (i, j) is solved by a
    fresh call of the raw backward rule, by increasing diagonal distance.
    Returns (corners, {(i, j): filling}).
    """
    if t.weight != ():
        raise ValueError("growth diagrams require weight zero")
    backward = _RULES[_FAMILY_RULE[t.family]][1]
    n = len(t)
    double = t.family == VACILLATING
    corners: dict[tuple[int, int], Partition] = {}
    for k, mu in enumerate(t.steps):
        corners[(k, k)] = tuple(2 * x for x in mu) if double else mu
    for k in range(n):
        p, q = t.steps[k], t.steps[k + 1]
        if double:
            if p == q:
                sub = _remove_box(tuple(2 * x for x in p), len(p))
            else:
                sub = tuple(2 * x for x in _meet(p, q))
        else:
            sub = _meet(p, q)
        corners[(k + 1, k)] = sub
    fill: dict[tuple[int, int], int] = {}
    for d in range(1, n):
        for i in range(d + 1, n + 1):
            j = i - d
            gamma, m = backward(corners[(i - 1, j)], corners[(i, j)], corners[(i - 1, j - 1)])
            corners[(i, j - 1)] = gamma
            fill[(i, j)] = m
    return corners, fill


def forward_hypotenuse_by_cells(rule: str, triangle: list[list[int]]) -> list[Partition]:
    """Hypotenuse labels (0, 0), ..., (n, n) of the forward growth sweep, cell by cell.

    Corners live in a dict keyed by (i, j), the bottom row n and the left
    column empty; rows n, n - 1, ..., 2 are solved in turn, each left to
    right, cell (i, j) by a fresh call of the raw forward rule on its SW, SE
    and NW corners and the filling triangle[i - 2][j - 1].
    """
    forward = _RULES[rule][0]
    n = len(triangle) + 1
    corners: dict[tuple[int, int], Partition] = {(n, j): () for j in range(n + 1)}
    corners.update(((i, 0), ()) for i in range(n + 1))
    for i in range(n, 1, -1):
        for j in range(1, i):
            corners[(i - 1, j)] = forward(
                corners[(i, j - 1)], corners[(i, j)], corners[(i - 1, j - 1)], triangle[i - 2][j - 1]
            )
    return [corners[(k, k)] for k in range(n + 1)] if triangle else [()]


def perfect_matchings(points: Sequence[int]) -> Iterator[list[tuple[int, int]]]:
    """Every perfect matching of the points, as chords (a, b) with a < b."""
    if not points:
        yield []
        return
    a, rest = points[0], points[1:]
    for k, b in enumerate(rest):
        for chords in perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield [(a, b)] + chords


def matrix_chords(m: Matrix) -> list[tuple[int, int]] | None:
    """The chords of a 0/1 symmetric matrix with zero diagonal and one 1 in each row, else None."""
    n = len(m)
    if any(m[i][j] != m[j][i] or m[i][j] not in (0, 1) for i in range(n) for j in range(n)):
        return None
    if any(m[i][i] or sum(m[i]) != 1 for i in range(n)):
        return None
    return [(i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]]


def max_crossing(chords: Sequence[tuple[int, int]]) -> int:
    """The most chords that cross pairwise; (a, b) and (c, d) cross when a < c < b < d."""

    def cross(x, y):
        (a, b), (c, d) = sorted((x, y))
        return a < c < b < d

    best = min(len(chords), 1)
    for k in range(2, len(chords) + 1):
        if any(
            all(cross(x, y) for x, y in itertools.combinations(subset, 2))
            for subset in itertools.combinations(chords, k)
        ):
            best = k
    return best


def matrix_from_triangle(rows: list[list[int]]) -> Matrix:
    """Symmetric matrix with zero diagonal from triangle rows."""
    n = len(rows) + 1
    fill = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows, start=1):
        if len(row) != i:
            raise ValueError(f"triangle row {i} must have {i} entries")
        for j, x in enumerate(row):
            fill[i][j] = x
            fill[j][i] = x
    return tuple(tuple(r) for r in fill)


def poly_add(p: Sequence[int], q: Sequence[int]) -> Poly:
    n = max(len(p), len(q))
    return trim(
        tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))
    )


def is_vertical_strip(p: Sequence[int], q: Sequence[int]) -> bool:
    """True if p <= q and q/p has at most one cell in each row."""
    n = max(len(p), len(q))
    pp, qq = pad(p, n), pad(q, n)
    return all(0 <= b - a <= 1 for a, b in zip(pp, qq))


def is_horizontal_strip(p: Sequence[int], q: Sequence[int]) -> bool:
    """True if p <= q and q/p has at most one cell in each column."""
    n = max(len(p), len(q)) + 1
    pp, qq = pad(p, n), pad(q, n)
    if any(b < a for a, b in zip(pp, qq)):
        return False
    return all(qq[i + 1] <= pp[i] for i in range(n - 1))


def forward_carry(gamma, delta, alpha, m, burge: bool):
    """Burge (vertical strips) or RSK (horizontal strips) forward rule, row by row.

    The strip predicates run first on whole corners; then the carry walks
    the padded rows until the NE corner ends.
    """
    if burge:
        if not (is_vertical_strip(gamma, delta) and is_vertical_strip(gamma, alpha)):
            raise ValueError("burge cell needs vertical strips over gamma")
    elif not (is_horizontal_strip(gamma, delta) and is_horizontal_strip(gamma, alpha)):
        raise ValueError("rsk cell needs horizontal strips over gamma")
    # the carry empties within two extra rows per accumulated box
    n = 2 * max(len(gamma), len(delta), len(alpha)) + m + 3
    g, d, a = pad(gamma, n), pad(delta, n), pad(alpha, n)
    beta = []
    carry = m
    for i in range(n):
        allow = min(1, carry) if burge else carry
        if burge and not g[i] == d[i] == a[i]:
            allow = 0
        b = max(d[i], a[i]) + allow
        if b == 0:
            break
        beta.append(b)
        if burge:
            carry = carry - allow + min(d[i], a[i]) - g[i]
        else:
            carry = min(d[i], a[i]) - g[i]
    else:
        raise AssertionError("carry algorithm failed to terminate")
    return tuple(beta)


def backward_carry(beta, delta, alpha, burge: bool):
    """Burge or RSK backward rule: strips first, then the carry bottom-up."""
    if burge:
        if not (is_vertical_strip(delta, beta) and is_vertical_strip(alpha, beta)):
            raise ValueError("burge cell needs vertical strips under beta")
    elif not (is_horizontal_strip(delta, beta) and is_horizontal_strip(alpha, beta)):
        raise ValueError("rsk cell needs horizontal strips under beta")
    n = len(beta)
    b, d, a = pad(beta, n), pad(delta, n), pad(alpha, n)
    gamma = [0] * n
    carry = 0
    for i in range(n - 1, -1, -1):
        # the burge indicator reads the known corners beta, delta, alpha
        allow = min(1, carry) if burge else carry
        if burge and not b[i] == d[i] == a[i]:
            allow = 0
        gamma[i] = min(d[i], a[i]) - allow
        if burge:
            carry = carry - allow + b[i] - max(d[i], a[i])
        else:
            carry = b[i] - max(d[i], a[i])
    if any(x < 0 for x in gamma) or not is_partition(gamma):
        raise ValueError(f"no valid SW corner for {beta}, {delta}, {alpha}")
    return trim(tuple(gamma)), carry


def union_max(p: Partition, q: Partition) -> Partition:
    """Set union of Young diagrams (row-wise max) on canonical tuples."""
    # distinct from the row-wise sum union used for doubling; one tail is empty
    return tuple(map(max, p, q)) + p[len(q):] + q[len(p):]


def add_box(p: Partition, row: int) -> Partition:
    """Add one box to row (1-based) of a canonical partition."""
    if row == len(p) + 1:
        return p + (1,)
    if row > len(p) or row > 1 and p[row - 2] == p[row - 1]:
        raise ValueError(f"cannot add a box to row {row} of {p}")
    return p[: row - 1] + (p[row - 1] + 1,) + p[row:]


def fomin_forward(gamma, delta, alpha, m) -> Partition:
    """Fomin's forward rules F1-F6 for 0/1 fillings, case by case."""
    row = _check_adjacent(gamma, delta, "zero_one cell")
    _check_adjacent(gamma, alpha, "zero_one cell")
    if m not in (0, 1):
        raise ValueError("zero_one filling must be 0 or 1")
    if m == 1:
        if not gamma == delta == alpha:
            raise ValueError("a 1 requires equal gamma, delta, alpha")
        return add_box(gamma, 1)  # F6
    if gamma == delta == alpha:
        return gamma  # F1
    if gamma == delta:
        return alpha  # F2
    if gamma == alpha:
        return delta  # F3
    if delta != alpha:
        return union_max(delta, alpha)  # F4
    return add_box(delta, row + 1)  # F5


def fomin_backward(beta, delta, alpha) -> tuple[Partition, int]:
    """Fomin's backward rules B1-B6 for 0/1 fillings, case by case."""
    row = _check_adjacent(delta, beta, "zero_one cell")
    _check_adjacent(alpha, beta, "zero_one cell")
    if beta == delta == alpha:
        return beta, 0  # B1
    if beta == delta:
        return alpha, 0  # B2
    if beta == alpha:
        return delta, 0  # B3
    if delta != alpha:
        return _meet(delta, alpha), 0  # B4
    if row >= 2:
        return _remove_box(delta, row - 1), 0  # B5
    return delta, 1  # B6
