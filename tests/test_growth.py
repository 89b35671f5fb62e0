import random

import pytest

from crystalchords.crystals import (
    FAN,
    OSCILLATING,
    VACILLATING,
    enumerate_zero,
    tableau,
)
from crystalchords.fixtures import (
    FAN8,
    FAN8_GROWTH_CORNERS,
    FAN8_MATRIX,
    VAC9,
    VAC9_GROWTH_CORNERS,
    VAC9_MATRIX,
)
from crystalchords.growth import (
    InvalidOutput,
    blocksum,
    blowup,
    cell_backward,
    cell_forward,
    growth_corners,
    growth_inverse,
    growth_matrix,
    lower_triangle_rows,
    matrix_from_triangle,
)
from crystalchords.promotion import chord_matrix
from crystalchords.virtual import iota_f_to_o, iota_v_to_f, iota_v_to_o
from crystalchords.weights import is_partition, pad, trim


def test_cell_forward_examples():
    assert cell_forward("zero_one", (1,), (1,), (1,), 1) == (2,)  # F6
    assert cell_forward("burge", (), (), (), 2) == (1, 1)
    assert cell_forward("rsk", (), (), (), 2) == (2,)


def test_cell_forward_zero_one_cases():
    assert cell_forward("zero_one", (2,), (2,), (2,), 0) == (2,)  # F1
    assert cell_forward("zero_one", (1,), (1,), (2,), 0) == (2,)  # F2
    assert cell_forward("zero_one", (1,), (2,), (1,), 0) == (2,)  # F3
    assert cell_forward("zero_one", (1,), (2,), (1, 1), 0) == (2, 1)  # F4
    assert cell_forward("zero_one", (1,), (1, 1), (1, 1), 0) == (1, 1, 1)  # F5
    with pytest.raises(ValueError):
        cell_forward("zero_one", (1,), (2,), (1,), 1)


def test_cell_backward_examples():
    assert cell_backward("zero_one", (2, 1), (1, 1), (1, 1)) == ((1, 1), 1)  # B6
    assert cell_backward("burge", (1, 1), (1,), (1,)) == ((), 0)
    assert cell_backward("rsk", (2,), (), ()) == ((), 2)


def test_cell_backward_zero_one_cases():
    assert cell_backward("zero_one", (2,), (2,), (2,)) == ((2,), 0)  # B1
    assert cell_backward("zero_one", (2,), (2,), (1,)) == ((1,), 0)  # B2
    assert cell_backward("zero_one", (2,), (1,), (2,)) == ((1,), 0)  # B3
    assert cell_backward("zero_one", (2, 1), (2,), (1, 1)) == ((1,), 0)  # B4
    assert cell_backward("zero_one", (1, 1, 1), (1, 1), (1, 1)) == ((1,), 0)  # B5


def test_growth_matrix_golden():
    assert growth_matrix(FAN, FAN8) == FAN8_MATRIX
    assert growth_matrix(VACILLATING, VAC9) == VAC9_MATRIX
    o = tableau(OSCILLATING, 1, [(), (1,), ()])
    assert growth_matrix(OSCILLATING, o) == ((0, 1), (1, 0))


def _assert_corner_rows(t, expected):
    corners = growth_corners(t)
    n = len(t)
    for k, row in enumerate(expected):
        for l, label in enumerate(row):
            assert corners[(n - k + l, l)] == label, (k, l)


def test_growth_corner_labels_golden():
    _assert_corner_rows(FAN8, FAN8_GROWTH_CORNERS)
    _assert_corner_rows(VAC9, VAC9_GROWTH_CORNERS)


def test_growth_borders_empty():
    for t in (FAN8, VAC9):
        corners = growth_corners(t)
        n = len(t)
        assert all(corners[(i, 0)] == () for i in range(n + 1))
        assert all(corners[(n, j)] == () for j in range(n + 1))


def test_growth_inverse_round_trips():
    cases = [
        (OSCILLATING, "zero_one", (1, 2, 3), range(0, 9, 2)),
        (FAN, "burge", (1, 2, 3), range(0, 7, 2)),
        (VACILLATING, "rsk", (1, 2), range(0, 7)),
    ]
    for family, rule, ranks, lengths in cases:
        for r in ranks:
            for n in lengths:
                for t in enumerate_zero(family, r, n):
                    tri = lower_triangle_rows(growth_matrix(family, t))
                    assert growth_inverse(rule, tri, family).steps == t.steps


def test_growth_inverse_invalid_output():
    with pytest.raises(InvalidOutput):
        growth_inverse("zero_one", [[0]], OSCILLATING)
    with pytest.raises(ValueError):
        growth_inverse("burge", [[0]], OSCILLATING)


def test_matrix_triangle_round_trip():
    assert matrix_from_triangle(lower_triangle_rows(FAN8_MATRIX)) == FAN8_MATRIX
    with pytest.raises(ValueError):
        matrix_from_triangle([[1, 2]])


def test_blocksum_examples():
    big = chord_matrix("M_O", iota_v_to_o(VAC9))
    assert blocksum(big, 2) == VAC9_MATRIX
    assert blocksum(((0,) * 4,) * 4, 2) == ((0, 0), (0, 0))
    assert blocksum(
        ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), 2
    ) == ((0, 2), (2, 0))
    with pytest.raises(ValueError):
        blocksum(((0,) * 3,) * 3, 2)


def test_blowup_examples():
    m = ((0, 2), (2, 0))
    eye = ((1, 0), (0, 1))
    anti = ((0, 1), (1, 0))
    se = blowup("SE", m, 2)
    ne = blowup("NE", m, 2)
    assert se == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    assert ne == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    assert blocksum(se, 2) == m and blocksum(ne, 2) == m
    with pytest.raises(ValueError):
        blowup("SE", ((1, 0), (0, 0)), 1)


def test_blowup_blocksum_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        # random doubly stochastic-ish integer matrix via permutation sums
        m = [[0] * n for _ in range(n)]
        for _ in range(k):
            perm = list(range(n))
            rng.shuffle(perm)
            for i, j in enumerate(perm):
                m[i][j] += 1
        m = tuple(tuple(row) for row in m)
        for direction in ("SE", "NE"):
            big = blowup(direction, m, k)
            assert blocksum(big, k) == m
            assert all(x in (0, 1) for row in big for x in row)


def test_blowup_se_lemma_on_fans():
    for r in (1, 2, 3):
        for n in range(0, 7, 2):
            for f in enumerate_zero(FAN, r, n):
                assert blowup("SE", chord_matrix("M_F", f), r) == chord_matrix(
                    "M_O", iota_f_to_o(f)
                )


def test_blowup_ne_lemma_on_vacillating():
    for r in (1, 2):
        for n in range(0, 7):
            for v in enumerate_zero(VACILLATING, r, n):
                assert blowup("NE", chord_matrix("M_VO", v), 2) == chord_matrix(
                    "M_O", iota_v_to_o(v)
                )


def test_growth_theorems_midscale():
    for r in (1, 2):
        for n in range(0, 7, 2):
            for t in enumerate_zero(OSCILLATING, r, n):
                assert growth_matrix(OSCILLATING, t) == chord_matrix("M_O", t)
            for t in enumerate_zero(FAN, r, n):
                assert growth_matrix(FAN, t) == chord_matrix("M_F", t)
        for n in range(0, 6):
            for t in enumerate_zero(VACILLATING, r, n):
                g = growth_matrix(VACILLATING, t)
                assert g == chord_matrix("M_VO", t) == chord_matrix("M_VF", t)


def test_fan_growth_agrees_with_vacillating_growth_plus_block_diagonal():
    """G_F(iota_VF(V)) minus G_O(iota_VO(V)) is (r-1) per off-diagonal pair cell."""
    for r in (1, 2):
        for n in range(1, 6):
            for v in enumerate_zero(VACILLATING, r, n):
                gf = growth_matrix(FAN, iota_v_to_f(v))
                go = growth_matrix(OSCILLATING, iota_v_to_o(v))
                two_n = 2 * n
                s = [[0] * two_n for _ in range(two_n)]
                for b in range(n):
                    s[2 * b][2 * b + 1] = r - 1
                    s[2 * b + 1][2 * b] = r - 1
                expected = tuple(
                    tuple(go[i][j] + s[i][j] for j in range(two_n))
                    for i in range(two_n)
                )
                assert gf == expected


def test_shrink_back_spot_checks():
    """Growth corners of the refined diagrams restrict to the coarse ones."""
    for r in (1, 2):
        for n in range(0, 5, 2):
            for f in enumerate_zero(FAN, r, n):
                coarse = growth_corners(f)
                fine = growth_corners(iota_f_to_o(f))
                for i in range(n + 1):
                    for j in range(i + 1):
                        assert fine[(r * i, r * j)] == coarse[(i, j)]
        for n in range(0, 6):
            for v in enumerate_zero(VACILLATING, 2, n):
                coarse = growth_corners(v)
                fine = growth_corners(iota_v_to_o(v))
                for i in range(n + 1):
                    for j in range(i + 1):
                        assert fine[(2 * i, 2 * j)] == coarse[(i, j)]


# ----------------------------------------------------- rule inversion


def rand_partition(rng, maxlen=4, maxpart=4):
    parts = sorted((rng.randint(0, maxpart) for _ in range(rng.randint(0, maxlen))), reverse=True)
    return trim(tuple(parts))


def grow_vertical(rng, p):
    q = list(pad(p, len(p) + 1))
    for i in range(len(q)):
        if rng.random() < 0.5:
            cand = q[:]
            cand[i] += 1
            if is_partition(cand):
                q = cand
    return trim(tuple(q))


def grow_horizontal(rng, p):
    q = list(pad(p, len(p) + 1))
    out = []
    cap = q[0] + rng.randint(0, 3)
    for i in range(len(q)):
        hi = min(cap, q[i - 1] if i else q[i] + 3)
        out.append(rng.randint(q[i], max(q[i], hi)))
        cap = q[i]
    return trim(tuple(out))


def grow_one_box(rng, p):
    opts = [p]
    q = list(pad(p, len(p) + 1))
    for i in range(len(q)):
        cand = q[:]
        cand[i] += 1
        if is_partition(cand):
            opts.append(trim(tuple(cand)))
    return opts[rng.randrange(len(opts))]


def shrink_vertical(rng, p):
    q = list(p)
    for i in range(len(q)):
        if rng.random() < 0.5:
            cand = q[:]
            cand[i] -= 1
            if cand[i] >= 0 and is_partition(cand):
                q = cand
    return trim(tuple(q))


def shrink_horizontal(rng, p):
    q = list(p)
    out = []
    for i in range(len(q)):
        lo = q[i + 1] if i + 1 < len(q) else 0
        out.append(rng.randint(lo, q[i]))
    # keep a horizontal strip: the removed cells must sit in distinct columns
    for i in range(1, len(out)):
        out[i] = max(out[i], min(q[i], out[i - 1]))
    return trim(tuple(out))


def test_rule_inversion_bulk():
    rng = random.Random(987654321)
    cases = 0
    for _ in range(3500):
        g = rand_partition(rng)
        d, a = grow_one_box(rng, g), grow_one_box(rng, g)
        m = rng.randint(0, 1) if d == g == a else 0
        b = cell_forward("zero_one", g, d, a, m)
        assert cell_backward("zero_one", b, d, a) == (g, m)

        d, a = grow_vertical(rng, g), grow_vertical(rng, g)
        m = rng.randint(0, 3)
        b = cell_forward("burge", g, d, a, m)
        assert cell_backward("burge", b, d, a) == (g, m)

        d, a = grow_horizontal(rng, g), grow_horizontal(rng, g)
        m = rng.randint(0, 3)
        b = cell_forward("rsk", g, d, a, m)
        assert cell_backward("rsk", b, d, a) == (g, m)
        cases += 3
    assert cases >= 10000


def test_rule_inversion_backward_first():
    rng = random.Random(123456789)
    done = 0
    for _ in range(4000):
        b = rand_partition(rng, 4, 5)
        for rule, shrink in (("burge", shrink_vertical), ("rsk", shrink_horizontal)):
            d, a = shrink(rng, b), shrink(rng, b)
            try:
                g, m = cell_backward(rule, b, d, a)
            except ValueError:
                continue
            assert cell_forward(rule, g, d, a, m) == b
            done += 1
    assert done >= 5000


def test_check_adjacent_matches_step_classify():
    """'Equal or adds one box' agrees with the step classification on all small pairs."""
    import itertools

    from crystalchords.growth import _check_adjacent
    from crystalchords.weights import step_classify

    shapes = [
        tuple(sorted(c, reverse=True))
        for k in range(5)
        for c in itertools.combinations_with_replacement((1, 2, 3), k)
    ]
    for p, q in itertools.product(shapes, repeat=2):
        try:
            _check_adjacent(p, q, "cell")
            ok = True
        except ValueError as exc:
            assert str(exc) == f"cell: {p} -> {q} must be equal or add one box"
            ok = False
        assert ok == (step_classify(p, q)[0] in ("equal", "add_box")), (p, q)
