"""Acceptance criteria, one test per criterion, exact and at full stated scales.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import time
from fractions import Fraction

from crystalchords.cli import rule_inversion_cells
from crystalchords.crystals import (
    FAN,
    OSCILLATING,
    VACILLATING,
    enumerate_zero,
)
from crystalchords.fixtures import (
    F42_FAN,
    F62_FAN,
    F72_VAC,
    FAN8,
    FAN8_MATRIX,
    FAN8_ORBIT,
    G22,
    G32,
    H72,
    VAC9,
    VAC9_MATRIX,
    VAC9_OSC_IMAGE,
)
from crystalchords.growth import blowup, cell_backward, cell_forward, growth_matrix
from crystalchords.promotion import chord_matrix, promote, rotate_matrix
from crystalchords.sieving import csp_check, f_poly, g_poly, h_poly, syt_h_poly
from crystalchords.virtual import iota_f_to_o, iota_v_to_o


def _report(name):
    print(f"PASS {name}")


def test_criterion_1_golden_fan_orbit_and_matrix():
    start = time.perf_counter()
    rows = []
    cur = FAN8
    for _ in range(9):
        rows.append(cur.steps)
        cur = promote(cur)
    assert tuple(rows) == FAN8_ORBIT
    assert chord_matrix("M_F", FAN8) == FAN8_MATRIX
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report("criterion-1 golden fan orbit and promotion matrix (exact, <1s)")


def test_criterion_2_golden_vacillating_embedding_and_matrix():
    start = time.perf_counter()
    assert iota_v_to_o(VAC9).steps == VAC9_OSC_IMAGE
    assert chord_matrix("M_VO", VAC9) == VAC9_MATRIX
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report("criterion-2 golden vacillating embedding and chord matrix (exact, <1s)")


def _all(family, rmax, nmax):
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            yield from enumerate_zero(family, r, n)


def test_criterion_3_theorem_suites():
    count = 0
    for t in _all(OSCILLATING, 3, 8):
        assert growth_matrix(OSCILLATING, t) == chord_matrix("M_O", t), t
        count += 1
    for t in _all(FAN, 3, 6):
        assert growth_matrix(FAN, t) == chord_matrix("M_F", t), t
        count += 1
    for t in _all(VACILLATING, 2, 6):
        g = growth_matrix(VACILLATING, t)
        assert g == chord_matrix("M_VO", t), t
        assert g == chord_matrix("M_VF", t), t
        count += 1
    _report(f"criterion-3 growth equals promotion fillings on {count} tableaux")


def test_criterion_4_structural_properties():
    checked = 0
    cases = [
        (OSCILLATING, ("M_O",), 3, 8),
        (FAN, ("M_F",), 3, 6),
        (VACILLATING, ("M_VO", "M_VF"), 2, 6),
    ]
    for family, tags, rmax, nmax in cases:
        for t in _all(family, rmax, nmax):
            n = len(t)
            cur = t
            for _ in range(n):
                cur = promote(cur)
            assert cur == t, ("pr^n != id", t)
            for tag in tags:
                m = chord_matrix(tag, t)
                assert chord_matrix(tag, promote(t)) == rotate_matrix(m), (tag, t)
                assert all(m[i][i] == 0 for i in range(n)), (tag, t)
                assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
            if family == OSCILLATING and n:
                m = chord_matrix("M_O", t)
                assert all(sum(row) == 1 for row in m)
                assert all(sum(col) == 1 for col in zip(*m))
            if family == FAN:
                assert blowup("SE", chord_matrix("M_F", t), t.rank) == chord_matrix(
                    "M_O", iota_f_to_o(t)
                ), t
            if family == VACILLATING:
                assert blowup("NE", chord_matrix("M_VO", t), 2) == chord_matrix(
                    "M_O", iota_v_to_o(t)
                ), t
            checked += 1
    _report(f"criterion-4 structural properties on {checked} tableaux")


def test_criterion_5_rule_inversion():
    cells = 0
    for rule, g, d, a, m in rule_inversion_cells(4):
        assert cell_backward(rule, cell_forward(rule, g, d, a, m), d, a) == (g, m), (rule, g, d, a, m)
        cells += 1
    assert cells == 363198
    _report(f"criterion-5 rule inversion on all {cells} cells over the 4 x 4 box")


def test_criterion_6_polynomial_fixtures():
    assert g_poly(2, 2) == G22
    assert g_poly(3, 2) == G32
    assert f_poly(FAN, 2, 4) == F42_FAN
    assert f_poly(FAN, 2, 6) == F62_FAN
    assert f_poly(VACILLATING, 2, 7) == F72_VAC
    assert h_poly(7, 2) == H72
    for r in (1, 2):
        for n in range(1, 8):
            assert h_poly(n, r) == syt_h_poly(n, r), (n, r)
    _report("criterion-6 polynomial fixtures exact")


def test_criterion_7_cyclic_sieving():
    for family in (OSCILLATING, FAN):
        for r in (1, 2):
            for n in (2, 4, 6, 8):
                xs = enumerate_zero(family, r, n)
                assert csp_check(xs, n, f_poly(family, r, n)).holds, (family, r, n)
    for r in (1, 2):
        for n in range(1, 8):
            xs = enumerate_zero(VACILLATING, r, n)
            if xs:
                assert csp_check(xs, n, h_poly(n, r)).holds, (r, n)
    # conjecture ranges must also come out holding
    for r in (1, 2, 3, 4, 5):
        for n in range(1, 7 - r):
            xs = enumerate_zero(FAN, r, 2 * n)
            assert csp_check(xs, 2 * n, g_poly(n, r)).holds, ("fan-g", r, n)
    for r in (2, 3):
        for n in range(1, 7):
            xs = enumerate_zero(VACILLATING, r, n)
            if xs:
                assert csp_check(xs, n, f_poly(VACILLATING, r, n)).holds, ("bvec-f", r, n)
    _report("criterion-7 cyclic sieving theorems and conjecture ranges hold")


def test_criterion_8_fan_counting():
    for r in (1, 2, 3):
        for half in (1, 2, 3, 4, 5):
            value = Fraction(1)
            for i in range(1, half):
                for j in range(i, half):
                    value *= Fraction(i + j + 2 * r, i + j)
            assert value.denominator == 1
            assert len(enumerate_zero(FAN, r, 2 * half)) == int(value), (r, half)
    assert len(enumerate_zero(FAN, 2, 8)) == 84
    _report("criterion-8 fan counts match the product formula")
