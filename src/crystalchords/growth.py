"""Growth-diagram local rules, triangular growth matrices, blow-up and block sums.

Cells carry the labels

    alpha  beta
    gamma  delta

with a non-negative filling m.  Forward rules compute beta from
(gamma, delta, alpha, m); backward rules recover (gamma, m) from
(beta, delta, alpha).  Three rule sets are supported: "zero_one" for 0/1
fillings where adjacent labels differ by at most a box, "burge" for
vertical-strip labellings and "rsk" for horizontal-strip labellings.

Triangular diagrams use corners alpha[i][j] for 0 <= j <= i <= n laid out
with the hypotenuse alpha[k][k] on the main diagonal (row index growing
downwards), the left column alpha[i][0] and bottom row alpha[n][j] empty,
and cell (i, j), 1 <= j < i <= n, having NW = alpha[i-1][j-1],
NE = alpha[i-1][j], SW = alpha[i][j-1], SE = alpha[i][j].  In the cell
labelling above this reads alpha=NW, beta=NE, gamma=SW, delta=SE.
"""

from __future__ import annotations

from .crystals import FAN, OSCILLATING, VACILLATING, TableauSeq
from .weights import (
    Partition,
    intersect_parts,
    is_horizontal_strip,
    is_partition,
    is_vertical_strip,
    pad,
    partition,
    step_classify,
    trim,
)

Matrix = tuple[tuple[int, ...], ...]


class InvalidOutput(Exception):
    """A growth filling whose forward sweep does not produce a family member."""


def _union_max(p: Partition, q: Partition) -> Partition:
    # set union of Young diagrams (row-wise max); distinct from the row-wise
    # sum union used for doubling
    n = max(len(p), len(q))
    return trim(tuple(max(a, b) for a, b in zip(pad(p, n), pad(q, n))))


def _add_box(p: Partition, row: int) -> Partition:
    q = list(pad(p, max(len(p), row)))
    q[row - 1] += 1
    if not is_partition(q):
        raise ValueError(f"cannot add a box to row {row} of {p}")
    return trim(tuple(q))


def _remove_box(p: Partition, row: int) -> Partition:
    q = list(p)
    if row > len(q) or q[row - 1] == 0:
        raise ValueError(f"cannot remove a box from row {row} of {p}")
    q[row - 1] -= 1
    if not is_partition(q):
        raise ValueError(f"cannot remove a box from row {row} of {p}")
    return trim(tuple(q))


def _box_row(small: Partition, large: Partition) -> int:
    """Row of the single cell of large/small (1-based)."""
    kind, row = step_classify(small, large)
    if kind != "add_box":
        raise ValueError(f"{large}/{small} is not a single box")
    return row


def cell_forward(rule: str, gamma, delta, alpha, m: int) -> Partition:
    """Complete the NE corner of a cell from the other three and the filling."""
    gamma, delta, alpha = partition(gamma), partition(delta), partition(alpha)
    if m < 0:
        raise ValueError("filling must be non-negative")
    if rule == "zero_one":
        return _forward_zero_one(gamma, delta, alpha, m)
    if rule == "burge":
        if not (is_vertical_strip(gamma, delta) and is_vertical_strip(gamma, alpha)):
            raise ValueError("burge cell needs vertical strips over gamma")
        return _forward_carry(gamma, delta, alpha, m, burge=True)
    if rule == "rsk":
        if not (is_horizontal_strip(gamma, delta) and is_horizontal_strip(gamma, alpha)):
            raise ValueError("rsk cell needs horizontal strips over gamma")
        return _forward_carry(gamma, delta, alpha, m, burge=False)
    raise ValueError(f"unknown rule set {rule!r}")


def cell_backward(rule: str, beta, delta, alpha) -> tuple[Partition, int]:
    """Recover the SW corner and the filling from the other three corners."""
    beta, delta, alpha = partition(beta), partition(delta), partition(alpha)
    if rule == "zero_one":
        return _backward_zero_one(beta, delta, alpha)
    if rule == "burge":
        if not (is_vertical_strip(delta, beta) and is_vertical_strip(alpha, beta)):
            raise ValueError("burge cell needs vertical strips under beta")
        return _backward_carry(beta, delta, alpha, burge=True)
    if rule == "rsk":
        if not (is_horizontal_strip(delta, beta) and is_horizontal_strip(alpha, beta)):
            raise ValueError("rsk cell needs horizontal strips under beta")
        return _backward_carry(beta, delta, alpha, burge=False)
    raise ValueError(f"unknown rule set {rule!r}")


def _check_adjacent(p: Partition, q: Partition, what: str) -> None:
    """Canonical q equals p or adds one box to it."""
    if p == q:
        return
    n = len(p)
    if len(q) == n + 1:
        if q[n] == 1 and q[:n] == p:
            return
    elif len(q) == n:
        changed = [i for i in range(n) if p[i] != q[i]]
        if len(changed) == 1 and q[changed[0]] == p[changed[0]] + 1:
            return
    raise ValueError(f"{what}: {p} -> {q} must be equal or add one box")


def _forward_zero_one(gamma, delta, alpha, m) -> Partition:
    _check_adjacent(gamma, delta, "zero_one cell")
    _check_adjacent(gamma, alpha, "zero_one cell")
    if m not in (0, 1):
        raise ValueError("zero_one filling must be 0 or 1")
    if m == 1:
        if not gamma == delta == alpha:
            raise ValueError("a 1 requires equal gamma, delta, alpha")
        return _add_box(gamma, 1)  # F6
    if gamma == delta == alpha:
        return gamma  # F1
    if gamma == delta:
        return alpha  # F2
    if gamma == alpha:
        return delta  # F3
    if delta != alpha:
        return _union_max(delta, alpha)  # F4
    return _add_box(delta, _box_row(gamma, delta) + 1)  # F5


def _backward_zero_one(beta, delta, alpha) -> tuple[Partition, int]:
    _check_adjacent(delta, beta, "zero_one cell")
    _check_adjacent(alpha, beta, "zero_one cell")
    if beta == delta == alpha:
        return beta, 0  # B1
    if beta == delta:
        return alpha, 0  # B2
    if beta == alpha:
        return delta, 0  # B3
    if delta != alpha:
        return intersect_parts(delta, alpha), 0  # B4
    row = _box_row(delta, beta)
    if row >= 2:
        return _remove_box(delta, row - 1), 0  # B5
    return delta, 1  # B6


def _forward_carry(gamma, delta, alpha, m, burge: bool) -> Partition:
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


def _backward_carry(beta, delta, alpha, burge: bool) -> tuple[Partition, int]:
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


_FAMILY_RULE = {OSCILLATING: "zero_one", FAN: "burge", VACILLATING: "rsk"}


def _seed_corners(t: TableauSeq) -> dict[tuple[int, int], Partition]:
    """Hypotenuse and first subdiagonal labels of the triangular diagram."""
    n = len(t)
    corners: dict[tuple[int, int], Partition] = {}
    double = t.family == VACILLATING
    for k, mu in enumerate(t.steps):
        corners[(k, k)] = tuple(2 * x for x in mu) if double else mu
    for k in range(n):
        p, q = t.steps[k], t.steps[k + 1]
        if t.family == VACILLATING:
            if p == q:
                sub = _remove_box(tuple(2 * x for x in p), len(p))
            else:
                sub = tuple(2 * x for x in intersect_parts(p, q))
        else:
            sub = intersect_parts(p, q)
        corners[(k + 1, k)] = sub
    return corners


def _backward_sweep(t: TableauSeq):
    """Solve every cell by increasing diagonal distance; corners and fillings."""
    if t.weight != ():
        raise ValueError("growth diagrams require weight zero")
    rule = _FAMILY_RULE[t.family]
    n = len(t)
    corners = _seed_corners(t)
    fill: dict[tuple[int, int], int] = {}
    for d in range(1, n):
        for i in range(d + 1, n + 1):
            j = i - d
            beta = corners[(i - 1, j)]
            delta = corners[(i, j)]
            alpha = corners[(i - 1, j - 1)]
            gamma, m = cell_backward(rule, beta, delta, alpha)
            corners[(i, j - 1)] = gamma
            fill[(i, j)] = m
    return corners, fill


def growth_corners(t: TableauSeq) -> dict[tuple[int, int], Partition]:
    """All corner labels of the triangular growth diagram of a weight-zero tableau."""
    return _backward_sweep(t)[0]


def growth_matrix(family: str, t: TableauSeq) -> Matrix:
    """Symmetric chord matrix read off a backward growth sweep."""
    if t.family != family:
        raise ValueError(f"expected a {family} tableau")
    n = len(t)
    _, cells = _backward_sweep(t)
    fill = [[0] * n for _ in range(n)]
    for (i, j), m in cells.items():
        fill[i - 1][j - 1] = m
        fill[j - 1][i - 1] = m
    return tuple(tuple(row) for row in fill)


def lower_triangle_rows(m: Matrix) -> list[list[int]]:
    """Cells below the diagonal as rows of growing length 1..n-1."""
    return [[m[i][j] for j in range(i)] for i in range(1, len(m))]


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


def growth_inverse(rule: str, triangle: list[list[int]], family: str) -> TableauSeq:
    """Forward sweep of a triangular filling; the hypotenuse read as a tableau.

    Raises :class:`InvalidOutput` when the hypotenuse is not a valid
    weight-zero member of the family (the filling lies outside the image).
    """
    if _FAMILY_RULE[family] != rule:
        raise ValueError(f"rule {rule!r} does not build {family} tableaux")
    # an empty triangle encodes the empty tableau (length 1 has no weight-zero members)
    n = len(triangle) + 1 if triangle else 0
    corners: dict[tuple[int, int], Partition] = {}
    for i in range(n + 1):
        corners[(i, 0)] = ()
        corners[(n, i)] = ()
    for d in range(n - 1, 0, -1):
        for i in range(n, d, -1):
            j = i - d
            gamma = corners[(i, j - 1)]
            delta = corners[(i, j)]
            alpha = corners[(i - 1, j - 1)]
            m = triangle[i - 2][j - 1]
            corners[(i - 1, j)] = cell_forward(rule, gamma, delta, alpha, m)
    hypotenuse = [corners[(k, k)] for k in range(n + 1)]
    try:
        if family == VACILLATING:
            steps = []
            for k, mu in enumerate(hypotenuse):
                if any(x % 2 for x in mu):
                    raise ValueError(f"hypotenuse label {mu} is not doubled")
                steps.append(tuple(x // 2 for x in mu))
            t = TableauSeq(family, _infer_rank(family, steps), tuple(steps))
        else:
            t = TableauSeq(family, _infer_rank(family, hypotenuse), tuple(hypotenuse))
    except ValueError as exc:
        raise InvalidOutput(str(exc)) from exc
    if t.weight != ():
        raise InvalidOutput("hypotenuse does not return to the empty partition")
    return t


def _infer_rank(family: str, steps) -> int:
    longest = max((len(p) for p in steps), default=0)
    if family == FAN:
        # every coordinate moves each step, so the rank is forced by step 1
        return max(len(steps[1]), 1) if len(steps) > 1 else max(longest, 1)
    return max(longest, 1)


def blocksum(m: Matrix, k: int) -> Matrix:
    """Sum each k-by-k block of a kn-by-kn matrix."""
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
                elif direction == "NE":
                    p, q = k - 1 - r[i][j] - t, k - c[i][j] - a + t
                else:
                    raise ValueError(f"unknown direction {direction!r}")
                out[k * i + p][k * j + q] = 1
    return tuple(tuple(row) for row in out)
