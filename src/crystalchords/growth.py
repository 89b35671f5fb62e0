"""Growth-diagram local rules, triangular growth matrices, blow-up and block sums.

Cells carry the labels

    alpha  beta
    gamma  delta

with a non-negative filling m.  Forward rules compute beta from
(gamma, delta, alpha, m); backward rules recover (gamma, m) from
(beta, delta, alpha).  Three rule sets are supported: "zero_one" for 0/1
fillings where adjacent labels differ by at most a box, "burge" for
vertical-strip labellings and "rsk" for horizontal-strip labellings.
Only the public cell_forward/cell_backward canonicalise corners, check the
filling and look up a rule by name, and they always call the raw rule.  The
Burge and RSK rules pad their corners once and test the strip condition row
by row in the same pass that runs the carry.  "zero_one" is the RSK carry
behind the 0/1 cell check: adjacent corners must be equal or differ by one
box, and a filling of 1 needs gamma = delta = alpha.  On such cells Fomin's
0/1 rules are the RSK rules, so they are not stated a second time.

The sweeps walk the diagram as a transducer over interned vertical edges
labelled (top corner, bottom corner), one set per rule set and direction
(:func:`_edges`).  A backward edge (NE, SE) maps a cell's NW corner to
(next edge (NW, SW), SW, m); a forward edge (NW, SW) maps (SE, m) to
(next edge (NE, SE), NE).  Corners are canonical partitions, so no key needs
a rank.  The edges are :class:`crystals._State` rows: a missing key calls
the raw rule, and only a value the rule returned is stored, so every
adjacency, strip and filling check still runs once on each distinct cell,
and a rejected cell is never stored and raises the rule's message every
time it is met.  The edges memoise the local rules only; they share the
state class and the pair constructor (:func:`crystals._pairs`) with the
promotion route, never a table.

Triangular diagrams use corners alpha[i][j] for 0 <= j <= i <= n laid out
with the hypotenuse alpha[k][k] on the main diagonal (row index growing
downwards), the left column alpha[i][0] and bottom row alpha[n][j] empty,
and cell (i, j), 1 <= j < i <= n, having NW = alpha[i-1][j-1],
NE = alpha[i-1][j], SW = alpha[i][j-1], SE = alpha[i][j].  In the cell
labelling above this reads alpha=NW, beta=NE, gamma=SW, delta=SE.  The
backward sweep builds row i from right to left out of row i - 1: a table
per family keyed by the pair of steps i - 1 and i (:func:`_seeds`) gives the
row's starting edge (alpha[i-1][i-1], alpha[i][i-1]), its hypotenuse label
(doubled for vacillating tableaux) and its first-subdiagonal label, and
each cell is then one lookup of alpha[i-1][j-1] in the current edge.  Rows i and i + 1
are walked as one pair of edges, row i + 1 reading each corner of row i as
it is written, so each lookup solves two cells (:func:`_backward_sweep`);
a second table per family, keyed by steps i - 1, i and i + 1
(:func:`_pair_seeds`), holds both rows' seeds and row i + 1's first cell.  The forward
sweep builds row i - 1 from left to right out of row i, from the bottom
row up, starting each row on the edge ((), ()) of the left column.  Rows i
and i - 1 are walked as one pair of forward edges, keyed by (SE corner,
fill of row i, fill of row i - 1) (:func:`_forward_pairs`), so each lookup
solves two cells and row i's last cell, on the hypotenuse, is one more.
A forward edge passes each NE corner it stores through validate_tableau's
partition test, and a table keyed by the doubled label (``_HALVES``)
halves a vacillating hypotenuse.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .crystals import (
    _INT,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    _check_canonical,
    _pairs,
    _State,
    _states,
    _Table,
    step_letters,
)
from .weights import Matrix, Partition, pad, partition


class InvalidOutput(Exception):
    """A growth filling whose forward sweep does not produce a family member."""


def _meet(p: Partition, q: Partition) -> Partition:
    # row-wise min; parts of canonical partitions are positive, so the
    # shorter length is where the meet ends
    return tuple(map(min, p, q))


def _remove_box(p: Partition, row: int) -> Partition:
    if row > len(p) or row < len(p) and p[row] == p[row - 1]:
        raise ValueError(f"cannot remove a box from row {row} of {p}")
    x = p[row - 1] - 1
    return p[: row - 1] + ((x,) if x else ()) + p[row:]


def cell_forward(rule: str, gamma, delta, alpha, m: int) -> Partition:
    """Complete the NE corner of a cell from the other three and the filling."""
    if type(m) is not int:  # bool is not a filling either
        raise ValueError(f"filling must be an int, not {type(m).__name__}")
    if m < 0:
        raise ValueError("filling must be non-negative")
    gamma, delta, alpha = partition(gamma), partition(delta), partition(alpha)
    if rule not in _RULES:
        raise ValueError(f"unknown rule set {rule!r}")
    return _RULES[rule][0](gamma, delta, alpha, m)


def cell_backward(rule: str, beta, delta, alpha) -> tuple[Partition, int]:
    """Recover the SW corner and the filling from the other three corners."""
    beta, delta, alpha = partition(beta), partition(delta), partition(alpha)
    if rule not in _RULES:
        raise ValueError(f"unknown rule set {rule!r}")
    return _RULES[rule][1](beta, delta, alpha)


def _check_adjacent(p: Partition, q: Partition, what: str) -> int:
    """Canonical q equals p or adds one box to it; the row (1-based) of that box, else 0."""
    if p == q:
        return 0
    n = len(p)
    if len(q) == n + 1:
        if q[n] == 1 and q[:n] == p:
            return n + 1
    elif len(q) == n:
        changed = [i for i in range(n) if p[i] != q[i]]
        if len(changed) == 1 and q[changed[0]] == p[changed[0]] + 1:
            return changed[0] + 1
    raise ValueError(f"{what}: {p} -> {q} must be equal or add one box")


def _forward_zero_one(gamma, delta, alpha, m) -> Partition:
    # Fomin's 0/1 rules are the RSK carry on cells whose labels differ by a box
    _check_adjacent(gamma, delta, "zero_one cell")
    _check_adjacent(gamma, alpha, "zero_one cell")
    if m not in (0, 1):
        raise ValueError("zero_one filling must be 0 or 1")
    if m == 1 and not gamma == delta == alpha:
        raise ValueError("a 1 requires equal gamma, delta, alpha")
    return _forward_rsk(gamma, delta, alpha, m)


def _backward_zero_one(beta, delta, alpha) -> tuple[Partition, int]:
    _check_adjacent(delta, beta, "zero_one cell")
    _check_adjacent(alpha, beta, "zero_one cell")
    return _backward_rsk(beta, delta, alpha)


def _forward_burge(gamma, delta, alpha, m) -> Partition:
    # the carry empties within two extra rows per accumulated box
    n = 2 * max(len(gamma), len(delta), len(alpha)) + m + 3
    beta = []
    carry = m
    for x, y, z in zip(
        gamma + (0,) * (n - len(gamma)),
        delta + (0,) * (n - len(delta)),
        alpha + (0,) * (n - len(alpha)),
    ):
        # vertical strips gamma -> delta and gamma -> alpha, one row at a time
        if not (x <= y <= x + 1 and x <= z <= x + 1):
            raise ValueError("burge cell needs vertical strips over gamma")
        if x != y or x != z:
            carry += min(y, z) - x
            beta.append(max(y, z))
        elif carry:
            carry -= 1
            beta.append(x + 1)
        elif x:
            beta.append(x)
        else:
            break
    else:
        raise AssertionError("carry algorithm failed to terminate")
    return tuple(beta)


def _forward_rsk(gamma, delta, alpha, m) -> Partition:
    # the carry empties within two extra rows per accumulated box
    n = 2 * max(len(gamma), len(delta), len(alpha)) + m + 3
    beta = []
    carry = m
    above = float("inf")  # gamma's row above; nothing bounds the first row
    for x, y, z in zip(
        gamma + (0,) * (n - len(gamma)),
        delta + (0,) * (n - len(delta)),
        alpha + (0,) * (n - len(alpha)),
    ):
        # horizontal strips: delta and alpha interleave gamma
        if not (x <= y <= above and x <= z <= above):
            raise ValueError("rsk cell needs horizontal strips over gamma")
        b = max(y, z) + carry
        if not b:
            break
        beta.append(b)
        carry = min(y, z) - x
        above = x
    else:
        raise AssertionError("carry algorithm failed to terminate")
    return tuple(beta)


def _backward_burge(beta, delta, alpha) -> tuple[Partition, int]:
    n = len(beta)
    if len(delta) > n or len(alpha) > n:
        raise ValueError("burge cell needs vertical strips under beta")
    gamma = []
    carry = 0
    below = 0  # gamma's row below; the last row must be non-negative
    bad = False
    # bottom-up; a bad gamma is reported only once every strip row has passed
    for w, y, z in zip(
        reversed(beta),
        reversed(delta + (0,) * (n - len(delta))),
        reversed(alpha + (0,) * (n - len(alpha))),
    ):
        if not (y <= w <= y + 1 and z <= w <= z + 1):
            raise ValueError("burge cell needs vertical strips under beta")
        # the burge indicator reads the known corners beta, delta, alpha
        if w != y or w != z:
            x = min(y, z)
            carry += w - max(y, z)
        elif carry:
            carry -= 1
            x = w - 1
        else:
            x = w
        if x < below:
            bad = True
        below = x
        if x:
            gamma.append(x)
    if bad:
        raise ValueError(f"no valid SW corner for {beta}, {delta}, {alpha}")
    return tuple(reversed(gamma)), carry


def _backward_rsk(beta, delta, alpha) -> tuple[Partition, int]:
    n = len(beta)
    if len(delta) > n or len(alpha) > n:
        raise ValueError("rsk cell needs horizontal strips under beta")
    gamma = []
    carry = 0
    below = 0  # gamma's row below; the last row must be non-negative
    under = 0  # beta's row below, which delta and alpha must bound
    bad = False
    # bottom-up; a bad gamma is reported only once every strip row has passed
    for w, y, z in zip(
        reversed(beta),
        reversed(delta + (0,) * (n - len(delta))),
        reversed(alpha + (0,) * (n - len(alpha))),
    ):
        if not (under <= y <= w and under <= z <= w):
            raise ValueError("rsk cell needs horizontal strips under beta")
        x = min(y, z) - carry
        carry = w - max(y, z)
        if x < below:
            bad = True
        below = x
        under = w
        if x:
            gamma.append(x)
    if bad:
        raise ValueError(f"no valid SW corner for {beta}, {delta}, {alpha}")
    return tuple(reversed(gamma)), carry


# rule name -> (forward, backward) local rule on canonical corners
_RULES = {
    "zero_one": (_forward_zero_one, _backward_zero_one),
    "burge": (_forward_burge, _backward_burge),
    "rsk": (_forward_rsk, _backward_rsk),
}

_FAMILY_RULE = {OSCILLATING: "zero_one", FAN: "burge", VACILLATING: "rsk"}


@cache
def _edges(rule: str, forward: bool) -> _Table:
    """The vertical edges of a rule set's forward or backward sweep, keyed by (top, bottom)."""
    raw = _RULES[rule][0 if forward else 1]
    if forward:

        def cell(edge: _State, key: tuple[Partition, int]) -> tuple[_State, Partition]:
            delta, m = key
            alpha, gamma = edge.label
            beta = raw(gamma, delta, alpha, m)
            # the NE corner passes validate_tableau's partition test once, when stored
            _check_canonical(beta)
            return edges[beta, delta], beta

    else:

        def cell(edge: _State, alpha: Partition) -> tuple[_State, Partition, int]:
            gamma, m = raw(*edge.label, alpha)
            return edges[alpha, gamma], gamma, m

    edges = _states(cell)
    return edges


@cache
def _seeds(family: str) -> _Table:
    """Per step pair (p, q): row i's starting edge, hypotenuse label and first-subdiagonal label.

    p and q are steps i - 1 and i.  Vacillating labels are doubled, and a
    repeated step removes a box from the last row of the doubled label.
    """
    edges = _edges(_FAMILY_RULE[family], False)

    def seed(step: tuple[Partition, Partition]) -> tuple[_State, Partition, Partition]:
        p, q = step
        if family == VACILLATING:
            repeat = p == q
            p, q = tuple(2 * x for x in p), tuple(2 * x for x in q)
            sub = _remove_box(p, len(p)) if repeat else _meet(p, q)
        else:
            sub = _meet(p, q)
        return edges[p, sub], q, sub

    return _Table(seed)


@cache
def _pair_seeds(family: str) -> _Table:
    """Per steps (i - 1, i, i + 1): the pair state that starts rows i and i + 1, and more.

    The pair (:func:`crystals._pairs`) is row i's starting edge with row
    i + 1's edge after cell (i + 1, i), which reads row i's first-subdiagonal
    label.  The entry also holds row i + 1's first three corners, (i + 1,
    i + 1), (i + 1, i) and (i + 1, i - 1), and the filling of that cell.
    """
    seeds = _seeds(family)
    pairs = _edge_pairs(_FAMILY_RULE[family])

    def seed(steps: tuple[Partition, Partition, Partition]):
        p, q, r = steps
        s, _, sub = seeds[p, q]
        e, hypotenuse, sub2 = seeds[q, r]
        e, gamma, m = e[sub]
        return pairs[s, e], (hypotenuse, sub2, gamma), m

    return _Table(seed)


@cache
def _edge_pairs(rule: str) -> _Table:
    """The pairs of a rule set's backward edges; each memoises two cells, never a sweep."""
    return _pairs()


@cache
def _forward_pairs(rule: str) -> _Table:
    """The pairs (s, t) of a rule set's forward edges that walk rows i and i - 1 in one lookup.

    The key is (SE corner, fill of row i, fill of row i - 1): s reads (SE, m)
    and writes the NE corner, which t reads with the second fill, so the
    entry for ``s2, beta = s[SE, m]`` and ``t2, beta2 = t[beta, m2]`` is
    ``(pairs[s2, t2], beta2)``.  A base fill that raises stores nothing here
    or in the edges; a pair memoises two cells, never a sweep.
    """

    def cell(pair: _State, key: tuple[Partition, int, int]) -> tuple[_State, Partition]:
        delta, m, m2 = key
        s, t = pair.label
        s, beta = s[delta, m]
        t, beta = t[beta, m2]
        return pairs[s, t], beta

    pairs = _states(cell)
    return pairs


def _backward_sweep(
    t: TableauSeq, start: int
) -> tuple[list[list[Partition]], list[tuple[int, int, int]]]:
    """Solve the diagram two rows at a time from row ``start``: corner rows and nonzero fillings.

    Row i lists the corners (i, i), (i, i - 1), ..., (i, 0), right to left.
    Rows i and i + 1 are walked as one pair, row i + 1 reading each corner of
    row i as it is written, so only row i + 1 is kept: the corner rows
    returned are rows start - 1, start + 1, ...  Each cell (i, j) of a walked
    row with a nonzero filling m is listed as (i, j, m).  Row 1 has no cells,
    so pairs from row 1 at even n and from row 2 at odd n cover every row.
    """
    if t.weight != ():
        raise ValueError("growth diagrams require weight zero")
    steps = t.steps
    row = [()] if start == 1 else list(_seeds(t.family)[steps[0], steps[1]][1:])
    rows = [row]
    cells = []
    keep = cells.append
    pair_seeds = _pair_seeds(t.family)
    i = start
    for key in zip(steps[start - 1 :: 2], steps[start::2], steps[start + 1 :: 2]):
        p, head, g = pair_seeds[key]
        if g:
            keep((i + 1, i, g))
        nxt = list(head)
        push = nxt.append
        # cells (i, j) and (i + 1, j) for j = i - 1, ..., 1: row i reads the NW
        # corner (i - 1, j - 1), row i + 1 the SW corner (i, j) row i has just
        # written; after the push, j = i + 3 - len(nxt)
        for alpha in row[1:]:
            p, gamma, m, g = p[alpha]
            push(gamma)
            if m:
                keep((i, i + 3 - len(nxt), m))
            if g:
                keep((i + 1, i + 3 - len(nxt), g))
        rows.append(nxt)
        row = nxt
        i += 2
    return rows, cells


def growth_corners(t: TableauSeq) -> list[list[Partition]]:
    """The corner labels of the triangular growth diagram of a weight-zero tableau, as rows.

    Row i lists the corners (i, 0), (i, 1), ..., (i, i), so ``rows[i][j]`` is
    alpha[i][j]; each is a row of :func:`_backward_sweep` reversed.  The sweep
    whose pairs start at row 1 keeps the even rows, the one whose pairs start
    at row 2 the odd rows; row 1 needs a step.
    """
    rows = [None] * len(t.steps)
    for start in (1, 2)[: len(t.steps)]:
        rows[start - 1 :: 2] = [row[::-1] for row in _backward_sweep(t, start)[0]]
    return rows


def growth_matrix(family: str, t: TableauSeq) -> Matrix:
    """Symmetric chord matrix read off a backward growth sweep."""
    if t.family != family:
        raise ValueError(f"expected a {family} tableau")
    _, cells = _backward_sweep(t, 1 + len(t) % 2)
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for i, j, m in cells:
        out[i - 1][j - 1] = out[j - 1][i - 1] = m
    return tuple(map(tuple, out))


def lower_triangle_rows(m: Matrix) -> list[list[int]]:
    """Cells below the diagonal as rows of growing length 1..n-1."""
    return [[m[i][j] for j in range(i)] for i in range(1, len(m))]


def _forward_sweep(rule: str, triangle: list[list[int]]) -> list[Partition]:
    """The hypotenuse alpha[0][0], ..., alpha[n][n] of a nonempty triangle's forward sweep.

    Cell (i, j) reads its SE corner (i, j) and the filling triangle[i - 2][j - 1].
    From the empty bottom row up, rows i and i - 1 are walked as one pair of
    forward edges (:func:`_forward_pairs`), row i - 1 reading each NE corner
    of row i as it is written, so only row i - 1's corners are kept.  Row i's
    last cell, whose NE corner is the hypotenuse label (i - 1, i - 1), is one
    more lookup in row i's edge.  At an odd number of rows the row left over
    is row 2, a single cell.  A rejected cell raises the rule's message, and
    the first one in row order, as a sweep one row at a time would.
    """
    start = _edges(rule, True)[(), ()]
    first = _forward_pairs(rule)[start, start]
    hypotenuse = [()]
    # corner row i lists (i, 0), ..., (i, i); every row starts on the left column's edge ((), ())
    row = [()] * (len(triangle) + 2)
    rows = triangle[::-1]
    for fills, above in zip(rows[::2], rows[1::2]):
        p = first
        nxt = [()]
        push = nxt.append
        try:
            for key in zip(row[1:], fills, above):
                p, beta = p[key]
                push(beta)
        except ValueError:
            # row i's cells come before row i - 1's: a rejected one of them names the triangle
            s = start
            for key in zip(row[1:], fills):
                s = s[key][0]
            raise
        hypotenuse += (p.label[0][row[-2], fills[-1]][1], beta)
        row = nxt
    if len(rows) % 2:
        hypotenuse.append(start[row[1], rows[-1][0]][1])
    hypotenuse.append(())
    hypotenuse.reverse()
    return hypotenuse


def _halve_label(mu: Partition) -> Partition:
    if any(x & 1 for x in mu):
        raise ValueError(f"hypotenuse label {mu} is not doubled")
    return tuple([x >> 1 for x in mu])


# a doubled vacillating hypotenuse label -> its half; an odd part raises and stores nothing
_HALVES = _Table(_halve_label)


def growth_inverse(rule: str, triangle: list[list[int]], family: str) -> TableauSeq:
    """Forward sweep of a triangular filling; the hypotenuse read as a tableau.

    The sweep walks two rows per lookup (:func:`_forward_sweep`).  Each NE
    corner passes validate_tableau's partition test when its forward edge
    entry is stored, and the hypotenuse passes the rank's part count and
    the family's step rule through :func:`crystals.step_letters`, so the
    tableau is built as trusted.  Raises :class:`InvalidOutput`, with the
    rule's message, when a local rule rejects a cell, and when the
    hypotenuse is not a valid weight-zero member of the family: either way
    the filling lies outside the image.  A malformed triangle or a rule that
    does not build the family is a ``ValueError``, raised before the sweep
    starts.
    """
    if _FAMILY_RULE.get(family) != rule:
        raise ValueError(f"rule {rule!r} does not build {family} tableaux")
    if (
        [*map(len, triangle)] != [*range(1, len(triangle) + 1)]
        or not _INT.issuperset(map(type, cells := [*chain.from_iterable(triangle)]))
        or min(cells, default=0) < 0
    ):
        # a good triangle is checked over all its cells at once; only a bad
        # one is walked row by row, to name its first bad row
        for i, row in enumerate(triangle, start=1):
            if len(row) != i or not _INT.issuperset(map(type, row)) or min(row) < 0:
                raise ValueError(f"triangle row {i} must hold {i} non-negative integers")
    try:
        # an empty triangle encodes the empty tableau (length 1 has no weight-zero members)
        hypotenuse = _forward_sweep(rule, triangle) if triangle else [()]
        if family == VACILLATING:
            hypotenuse = [*map(_HALVES.__getitem__, hypotenuse)]
        longest = max(map(len, hypotenuse))
        # every coordinate of a fan moves each step, so its rank is forced by step 1
        r = max(len(hypotenuse[1]) if family == FAN and triangle else longest, 1)
        if longest > r:
            # as validate_tableau does, name the first label with too many parts
            # before any step is checked
            pad(next(p for p in hypotenuse if len(p) > r), r)
        step_letters(family, r, hypotenuse)
    except ValueError as exc:
        raise InvalidOutput(str(exc)) from exc
    # each label was checked when its edge entry was stored, each step by the step table
    return TableauSeq._trusted(family, r, tuple(hypotenuse))


def _check_block_size(k: int) -> None:
    if type(k) is not int or k < 1:  # True would pass for 1
        raise ValueError(f"block size must be an int >= 1, not {k!r}")


def blocksum(m: Matrix, k: int) -> Matrix:
    """Sum each k-by-k block of a kn-by-kn matrix."""
    _check_block_size(k)
    if len(m) % k:
        raise ValueError(f"dimension {len(m)} is not divisible by {k}")
    n = len(m) // k
    return tuple(
        tuple(
            sum(m[k * i + p][k * j + q] for p in range(k) for q in range(k))
            for j in range(n)
        )
        for i in range(n)
    )


def _skewed_sums(m: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Partial row and column sums accumulated cyclically from the diagonal."""
    n = len(m)
    r = [[0] * n for _ in range(n)]
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for step in range(n - 1):
            j = (i + step) % n
            r[i][(j + 1) % n] = r[i][j] + m[i][j]
    for j in range(n):
        for step in range(n - 1):
            i = (j + step) % n
            c[(i + 1) % n][j] = c[i][j] + m[i][j]
    return r, c


def blowup(direction: str, m: Matrix, k: int) -> Matrix:
    """The unique 0/1 matrix with k-block sums m whose ones form SE or NE chains."""
    if direction not in ("SE", "NE"):
        raise ValueError(f"unknown direction {direction!r}")
    _check_block_size(k)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    for i in range(n):
        if sum(m[i]) != k:
            raise ValueError(f"row {i + 1} does not sum to {k}")
        if sum(row[i] for row in m) != k:
            raise ValueError(f"column {i + 1} does not sum to {k}")
    r, c = _skewed_sums(m)
    out = [[0] * (k * n) for _ in range(k * n)]
    for i in range(n):
        for j in range(n):
            a = m[i][j]
            for t in range(a):
                if direction == "SE":
                    p, q = r[i][j] + t, c[i][j] + t
                else:
                    p, q = k - 1 - r[i][j] - t, k - c[i][j] - a + t
                out[k * i + p][k * j + q] = 1
    return tuple(tuple(row) for row in out)
