import re
from fractions import Fraction

import pytest

from crystalchords.crystals import (
    BVEC,
    CVEC,
    FAN,
    OSCILLATING,
    SPIN,
    VACILLATING,
    TableauSeq,
    Word,
    enumerate_zero,
    letters,
    tableau,
    tableau_to_word,
)
from crystalchords.fixtures import F42_FAN, F62_FAN, F72_VAC, G22, G32, H72
from crystalchords.promotion import promote
from crystalchords.sieving import (
    csp_check,
    descent_major,
    energy,
    f_poly,
    g_poly,
    h_poly,
    local_energy,
    major_poly,
    orbit_decomposition,
    poly_divexact,
    poly_mod_cyclic,
    poly_mul,
    poly_str,
    q_int,
    syt_h_poly,
)
from crystalchords.weights import trim

from oracles import RAISE, poly_add, spin_pair_energy_by_raising, tensor_apply


def test_poly_arithmetic():
    assert trim((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert poly_add((1, 1), (0, -1, 3)) == (1, 0, 3)
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_divexact(poly_mul(q_int(6), q_int(4)), q_int(4)) == q_int(6)
    with pytest.raises(ValueError):
        poly_divexact((1, 1, 1), (1, 1))
    assert poly_mod_cyclic((0, 0, 0, 0, 1), 4) == (1,)
    assert poly_str((1, 0, 1, 0, 1)) == "q^4 + q^2 + 1"
    assert poly_str(()) == "0"
    assert poly_str((0, -2, 1)) == "q^2 - 2*q"


def test_local_energy_cvec():
    assert local_energy(CVEC, 2, 1, 2) == 0
    assert local_energy(CVEC, 2, -2, 1) == 1
    assert local_energy(CVEC, 2, -2, -1) == 0
    assert local_energy(CVEC, 2, -1, -2) == 1


def test_local_energy_bvec():
    assert local_energy(BVEC, 2, 0, 0) == 1
    assert local_energy(BVEC, 2, -1, 1) == 2
    assert local_energy(BVEC, 2, 1, 0) == 0
    assert local_energy(BVEC, 2, -2, 2) == 1


def test_local_energy_spin():
    assert local_energy(SPIN, 2, (-1, -1), (1, 1)) == 1
    assert local_energy(SPIN, 2, (1, 1), (1, 1)) == 0
    assert local_energy(SPIN, 2, (1, -1), (1, 1)) == 1
    assert local_energy(SPIN, 2, (-1, -1), (-1, -1)) == 0
    assert local_energy(SPIN, 3, (-1, -1, -1), (1, 1, 1)) == 2


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_spin_energy_matches_classical_raising(r):
    for a in letters(SPIN, r):
        for b in letters(SPIN, r):
            assert local_energy(SPIN, r, a, b) == spin_pair_energy_by_raising(r, a, b), (a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        ((1, 1), (1, 1, 1)),  # the right factor is one sign too long
        ((1,), (1, 1)),  # the left factor is one sign short
        ((1, 0), (1, 1)),
        ((1, 1), [1, 1]),
        (1, (1, 1)),
        (5, 1),  # 5 exceeds the rank
        (0, 7),  # 0 is no cvec letter, 7 no bvec letter
        (1, -3),
        (1, 1.0),
        # a bool is an int, but no letter
        (True, 1),
        (1, False),
        (True, -1),
        ((True, -1), (1, 1)),
    ],
)
def test_spin_energy_rejects_what_is_not_a_rank_r_letter(a, b):
    """Each pair holds a non-letter of every kind at rank 2, on either side."""
    for kind in (SPIN, CVEC, BVEC):
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=f"is not a {kind} letter of rank 2"):
                local_energy(kind, 2, *pair)
            with pytest.raises(ValueError, match=f"is not a {kind} letter of rank 2"):
                Word(kind, 2, pair)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_spin_energy_constant_on_classical_components(r):
    for a in letters(SPIN, r):
        for b in letters(SPIN, r):
            h = local_energy(SPIN, r, a, b)
            w = Word(SPIN, r, (b, a))
            for i in range(1, r + 1):
                up = tensor_apply(w, i, RAISE)
                if up is not None:
                    b2, a2 = up.letters
                    assert local_energy(SPIN, r, a2, b2) == h


def test_energy_examples():
    assert energy(Word(CVEC, 2, (1,))) == 0
    # the length-2 oscillating word: the left-to-right reading is 1bar (x) 1
    assert energy(Word(CVEC, 2, (1, -1))) == 1
    # contributes q^(n/2) * q^1 = q^2 to the f-polynomial, so f mod q^2-1 = 1
    assert poly_mod_cyclic(f_poly(OSCILLATING, 2, 2), 2) == (1,)


def _energy_by_pairs(w):
    """energy from its definition: i * H(b_i (x) b_{i+1}), b_1 the leftmost factor."""
    b = w.letters[::-1]
    return sum(i * local_energy(w.kind, w.rank, b[i - 1], b[i]) for i in range(1, len(b)))


def test_energy_sums_local_energy_over_the_words_of_tableaux():
    count = 0
    for family in (OSCILLATING, FAN, VACILLATING):
        for r in range(1, 4):
            for n in range(9):
                for t in enumerate_zero(family, r, n):
                    w = tableau_to_word(t)
                    assert energy(w) == _energy_by_pairs(w), t
                    count += 1
    assert count > 1000


@pytest.mark.parametrize("kind", [CVEC, BVEC, SPIN])
def test_energy_sums_local_energy_over_all_short_words(kind):
    from oracles import iter_words

    for r in range(1, 4):
        for n in range(5):
            for w in iter_words(kind, r, n):
                assert energy(w) == _energy_by_pairs(w), w


def test_f_poly_fixtures():
    assert f_poly(FAN, 2, 4) == F42_FAN
    assert f_poly(FAN, 2, 6) == F62_FAN
    assert f_poly(VACILLATING, 2, 7) == F72_VAC
    assert f_poly(OSCILLATING, 1, 3) == ()  # no weight-zero words


def test_f_poly_counts_at_one():
    for family, r, n in [
        (FAN, 2, 6),
        (OSCILLATING, 2, 6),
        (VACILLATING, 2, 6),
        (FAN, 3, 4),
    ]:
        assert sum(f_poly(family, r, n)) == len(enumerate_zero(family, r, n))


def test_g_poly_fixtures():
    assert g_poly(2, 2) == G22
    assert g_poly(3, 2) == G32
    assert g_poly(1, 5) == (1,)


def fan_count_formula(n: int, r: int) -> int:
    value = Fraction(1)
    for i in range(1, n):
        for j in range(i, n):
            value *= Fraction(i + j + 2 * r, i + j)
    return int(value)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_g_poly_at_one_counts_fans(r, n):
    assert sum(g_poly(n, r)) == fan_count_formula(n, r) == len(
        enumerate_zero(FAN, r, 2 * n)
    )


def test_g_equals_f_mod_cyclic():
    for r in (1, 2, 3, 4, 5):
        for n in range(1, 7 - r):
            assert poly_mod_cyclic(g_poly(n, r), 2 * n) == poly_mod_cyclic(
                f_poly(FAN, r, 2 * n), 2 * n
            )


def test_descent_major_examples():
    w = Word(BVEC, 1, (1, -1))
    assert descent_major(w) == ((), 0)
    # without the balance veto position 1 would be a descent
    v = tableau(VACILLATING, 1, [(), (1,), (1,), (1,), ()])
    word = tableau_to_word(v)
    assert word.letters == (1, 0, 0, -1)
    descents, maj = descent_major(word)
    assert maj == sum(descents)
    with pytest.raises(ValueError):
        descent_major(Word(BVEC, 1, (-1, 1)))
    with pytest.raises(ValueError):
        descent_major(Word(CVEC, 1, (1, -1)))


def test_weakly_decreasing_reading_has_no_descents():
    # letters not increasing along u_1, u_2, ... means maj is zero
    w = Word(BVEC, 2, (1, 1, 1))
    assert descent_major(w) == ((), 0)


@pytest.mark.parametrize("r", [1, 2])
def test_major_poly_sums_the_checked_descent_major(r):
    """major_poly skips the highest-weight check but sums what descent_major gives."""
    for n in range(9):
        items = enumerate_zero(VACILLATING, r, n)
        majors = [descent_major(tableau_to_word(t))[1] for t in items]
        expected = tuple(majors.count(e) for e in range(max(majors, default=-1) + 1))
        assert major_poly(items) == expected, n


def test_h_poly_fixtures():
    assert h_poly(7, 2) == H72
    assert h_poly(2, 1) == (1,)
    assert syt_h_poly(2, 1) == (1,)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_h_poly_matches_syt_route(n, r):
    assert h_poly(n, r) == syt_h_poly(n, r)


def test_csp_singleton_identity():
    x = [tableau(OSCILLATING, 1, [()])]
    report = csp_check(x, 1, (1,), action=lambda t: t)
    assert report.holds
    assert report.orbit_sizes == (1,)


def test_orbit_decomposition_orders():
    xs = enumerate_zero(FAN, 2, 6)
    dec = orbit_decomposition(xs, 6)
    assert sum(dec.sizes) == len(xs)
    assert all(6 % s == 0 for s in dec.sizes)
    with pytest.raises(ValueError):
        orbit_decomposition(xs, 4)


def test_an_element_listed_twice_is_one_element():
    """Duplicates after the first appearance, as the same object or as a
    validated copy, change neither the orbits nor the cut on a walk that
    misses its start."""
    xs = enumerate_zero(FAN, 2, 6)
    dec = orbit_decomposition(xs, 6)
    copy = TableauSeq(xs[3].family, xs[3].rank, xs[3].steps)
    for listing in (xs + [xs[0]], xs[:4] + [copy] + xs[4:] + [xs[-1]], xs + xs):
        again = orbit_decomposition(listing, 6)
        assert again.sizes == dec.sizes and again.orbits == dec.orbits
    els = enumerate_zero(OSCILLATING, 2, 4)
    with pytest.raises(ValueError, match=rf"within {len(els)} steps$"):
        orbit_decomposition(els + els, 4, action=lambda t: els[0])


def test_orbit_decomposition_stops_when_the_action_misses_its_start():
    """A constant action walks t into a fixed point other than t; that is reported."""
    els = enumerate_zero(OSCILLATING, 2, 4)
    calls = []

    def constant(t):
        calls.append(t)
        if len(calls) > 100:
            raise AssertionError("the walk was not cut")
        return els[0]

    with pytest.raises(ValueError, match=f"^action does not return to {re.escape(repr(els[1]))}"):
        orbit_decomposition(els, 4, action=constant)
    # one cycle through the whole set is the longest orbit that still closes
    step = {t: els[(k + 1) % len(els)] for k, t in enumerate(els)}
    assert orbit_decomposition(els, len(els), action=step.__getitem__).sizes == (len(els),)


def test_orbit_decomposition_reports_an_action_that_leaves_the_set():
    """Orbits are keyed by (family, rank, steps): a trusted and a validated copy
    of a tableau are one element, and an element outside the set is reported."""
    els = enumerate_zero(OSCILLATING, 2, 4)
    copies = {t: TableauSeq(t.family, t.rank, t.steps) for t in els}
    assert orbit_decomposition(els, 4, action=lambda t: copies[promote(t)]).sizes == (
        orbit_decomposition(els, 4).sizes
    )
    outside = enumerate_zero(OSCILLATING, 2, 2)[0]
    with pytest.raises(ValueError, match=f"^action leaves the set on {re.escape(repr(els[0]))}$"):
        orbit_decomposition(els, 4, action=lambda t: outside)


@pytest.mark.parametrize("family", [OSCILLATING, FAN])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_csp_theorem_minuscule(family, r, n):
    xs = enumerate_zero(family, r, n)
    report = csp_check(xs, n, f_poly(family, r, n))
    assert report.holds, report


@pytest.mark.parametrize("r", [1, 2])
def test_csp_theorem_vacillating_major(r):
    for n in range(1, 8):
        xs = enumerate_zero(VACILLATING, r, n)
        if not xs:
            continue
        report = csp_check(xs, n, h_poly(n, r))
        assert report.holds, (r, n, report)


def test_csp_conjecture_fans_g():
    for r in (1, 2, 3, 4, 5):
        for n in range(1, 7 - r):
            xs = enumerate_zero(FAN, r, 2 * n)
            report = csp_check(xs, 2 * n, g_poly(n, r))
            assert report.holds, (r, n, report)


def test_csp_conjecture_bvec_f():
    for r in (2, 3):
        for n in range(1, 7):
            xs = enumerate_zero(VACILLATING, r, n)
            if not xs:
                continue
            report = csp_check(xs, n, f_poly(VACILLATING, r, n))
            assert report.holds, (r, n, report)


def test_csp_failure_reports_mismatch():
    xs = enumerate_zero(FAN, 2, 4)
    report = csp_check(xs, 4, (0, 1))  # plain q never sieves here
    assert not report.holds
    assert report.first_mismatch_d is not None
    assert report.residue != report.expected_residue
    payload = report.to_json()
    assert payload["holds"] is False
