import pytest

from crystalchords.crystals import (
    FAN,
    OSCILLATING,
    VACILLATING,
    enumerate_zero,
    tableau,
)
from crystalchords.fixtures import (
    FAN4,
    FAN4_PROMOTED,
    FAN8,
    FAN8_MATRIX,
    FAN8_ORBIT,
    FAN8_PROMOTION_CORNERS,
    VAC9,
    VAC9_MATRIX,
    VAC9_PROMOTED,
)
from crystalchords.promotion import (
    chord_matrix,
    local_rule,
    promote,
    promotion_grid,
    rotate_matrix,
)
from crystalchords.virtual import iota_f_to_o

import oracles
from oracles import fill_value


def test_local_rule_examples():
    assert local_rule((1, 1, 1), (0, 0, 0), (2, 2, 2)) == (1, 1, 1)
    assert local_rule((2, 2, 2), (1, 1, 1), (3, 1, 1)) == (2,)
    assert local_rule((1, 1, 1), (0, 0, 0), (0, 0, 0)) == (1, 1, 1)
    with pytest.raises(ValueError):
        local_rule((1, 0), (0, 0, 0), (0, 0, 0))


def test_fill_value_examples():
    assert fill_value("fan", (1, 1, 1), (0, 0, 0), (0, 0, 0)) == 3
    assert fill_value("osc", (1,), (), ()) == 1
    assert fill_value("osc", (), (), ()) == 0
    assert fill_value("fan", (), (), ()) == 0


def test_promote_fan_orbit():
    rows = []
    cur = FAN8
    for _ in range(9):
        rows.append(cur.steps)
        cur = promote(cur)
    assert tuple(rows) == FAN8_ORBIT
    assert rows[8] == rows[0]


def test_promote_small_fan_matches_commutor_example():
    assert promote(FAN4).steps == FAN4_PROMOTED


def test_promote_vacillating_example():
    assert promote(VAC9).steps == VAC9_PROMOTED


def test_promote_requires_weight_zero():
    with pytest.raises(ValueError):
        promote(tableau(OSCILLATING, 1, [(), (1,)]))


def test_promotion_grid_row_zero_and_corners():
    grid = promotion_grid(FAN8)
    assert grid.rows[0] == FAN8.steps
    for i in range(9):
        for j in range(9):
            assert grid.entry(i, j) == FAN8_PROMOTION_CORNERS[i][j]


def test_promotion_grid_two_step():
    o = tableau(OSCILLATING, 1, [(), (1,), ()])
    grid = promotion_grid(o)
    assert grid.entry(0, 1) == (1,)
    assert grid.entry(1, 0) == (1,)
    assert grid.entry(1, 2) == (1,)
    assert grid.entry(0, 0) == () and grid.entry(1, 1) == ()


def test_chord_matrix_golden():
    assert chord_matrix("M_F", FAN8) == FAN8_MATRIX
    assert chord_matrix("M_VO", VAC9) == VAC9_MATRIX
    assert chord_matrix("M_VF", VAC9) == VAC9_MATRIX
    o = tableau(OSCILLATING, 1, [(), (1,), ()])
    assert chord_matrix("M_O", o) == ((0, 1), (1, 0))


def test_chord_matrix_family_mismatch():
    with pytest.raises(ValueError):
        chord_matrix("M_O", FAN8)
    with pytest.raises(ValueError):
        chord_matrix("M_VF", FAN8)
    with pytest.raises(ValueError):
        chord_matrix("M_X", FAN8)


def test_rotate_examples():
    assert rotate_matrix(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    zero = ((0,) * 3,) * 3
    assert rotate_matrix(zero) == zero
    m = ((0, 1, 0), (0, 0, 0), (0, 0, 0))  # single 1 at row 1, column 2
    assert rotate_matrix(m) == ((0, 0, 0), (0, 0, 0), (1, 0, 0))


SCALES = [
    (OSCILLATING, "M_O", 2, 6),
    (FAN, "M_F", 2, 6),
    (VACILLATING, "M_VO", 2, 5),
    (VACILLATING, "M_VF", 2, 5),
]


@pytest.mark.parametrize("family,tag,rmax,nmax", SCALES)
def test_promotion_order_and_rotation(family, tag, rmax, nmax):
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            for t in enumerate_zero(family, r, n):
                cur = t
                for _ in range(n):
                    cur = promote(cur)
                assert cur == t
                assert chord_matrix(tag, promote(t)) == rotate_matrix(
                    chord_matrix(tag, t)
                )


@pytest.mark.parametrize("family,tag,rmax,nmax", SCALES)
def test_chord_matrices_symmetric_zero_diagonal(family, tag, rmax, nmax):
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            for t in enumerate_zero(family, r, n):
                m = chord_matrix(tag, t)
                assert all(m[i][i] == 0 for i in range(n))
                assert all(
                    m[i][j] == m[j][i] for i in range(n) for j in range(n)
                )


def test_m_o_is_a_perfect_matching():
    for r in (1, 2, 3):
        for n in range(0, 9, 2):
            for t in enumerate_zero(OSCILLATING, r, n):
                m = chord_matrix("M_O", t)
                assert all(sum(row) == 1 for row in m)
                assert all(sum(col) == 1 for col in zip(*m))


@pytest.mark.parametrize("r,nmax", [(1, 6), (2, 5), (3, 4)])
def test_fan_promotion_agrees_with_virtual_route(r, nmax):
    """Local-rule fan promotion equals r oscillating promotions upstairs."""
    for n in range(nmax + 1):
        for f in enumerate_zero(FAN, r, n):
            o = iota_f_to_o(f)
            for _ in range(r):
                o = promote(o)
            assert iota_f_to_o(promote(f)) == o


@pytest.mark.parametrize("r,nmax", [(1, 6), (2, 6)])
def test_vacillating_chord_routes_agree(r, nmax):
    for n in range(nmax + 1):
        for v in enumerate_zero(VACILLATING, r, n):
            assert chord_matrix("M_VO", v) == chord_matrix("M_VF", v)


# the one-sweep filling against the two-pass definition, on every tableau
ORACLE_SCALES = [
    (OSCILLATING, ("M_O",), 3, 8),
    (FAN, ("M_F",), 3, 6),
    (VACILLATING, ("M_VO", "M_VF"), 2, 6),
]


@pytest.mark.parametrize("family,tags,rmax,nmax", ORACLE_SCALES)
def test_chord_matrix_matches_two_pass_definition(family, tags, rmax, nmax):
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            for t in enumerate_zero(family, r, n):
                for tag in tags:
                    assert chord_matrix(tag, t) == oracles.chord_matrix(tag, t), (tag, t)


@pytest.mark.parametrize("family,rmax,nmax", [(OSCILLATING, 3, 8), (FAN, 3, 6)])
def test_promotion_grid_matches_local_rule_sweep(family, rmax, nmax):
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            for t in enumerate_zero(family, r, n):
                assert promotion_grid(t) == oracles.promotion_grid(t)


def test_sweep_checks_every_new_step():
    """The sweep raises validation's message on a step its family forbids."""
    from crystalchords.promotion import _sweep

    row, vecs = _sweep([(0,), (1,), (0,)], OSCILLATING)
    assert row == [(0,), (1,), (0,)] and vecs == [(-1,)]
    with pytest.raises(ValueError, match=r"^oscillating step \(\) -> \(2,\) must add or remove one box$"):
        _sweep([(0,), (2,), (0,)], OSCILLATING)
    # the last step, into the empty partition, is checked too
    with pytest.raises(ValueError, match=r"^oscillating step \(2,\) -> \(\) must add or remove one box$"):
        _sweep([(0,), (1,), (2,), (3,)], OSCILLATING)
    with pytest.raises(ValueError, match=r"^fan step \(\) -> \(2,\) must change every part by one$"):
        _sweep([(0,), (1,), (3,), (0,)], FAN)


def test_chord_matrix_requires_weight_zero():
    with pytest.raises(ValueError, match="weight zero"):
        chord_matrix("M_O", tableau(OSCILLATING, 1, [(), (1,)]))
    assert chord_matrix("M_O", tableau(OSCILLATING, 1, [()])) == ()
