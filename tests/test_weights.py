import pytest
from hypothesis import given
from hypothesis import strategies as st

from crystalchords.weights import dominant_representative, pad, partition, trim

from oracles import (
    intersect_parts,
    is_horizontal_strip,
    is_vertical_strip,
    root_system,
    step_classify,
    union_parts,
)

weight_vecs = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(tuple)
partitions = st.lists(st.integers(0, 5), min_size=0, max_size=5).map(
    lambda xs: partition(sorted(xs, reverse=True))
)


def test_partition_canonical_form():
    assert partition((3, 2, 0, 0)) == (3, 2)
    assert partition(()) == ()
    assert partition((1, 1, 1)) == (1, 1, 1)
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, -1))


@pytest.mark.parametrize(
    "parts, message",
    [
        ([1.7, 0.2], "part 1.7 of (1.7, 0.2) is not an int"),
        ([2, 1.0], "part 1.0 of (2, 1.0) is not an int"),
        ([True], "part True of (True,) is not an int"),
        (["2", "1"], "part '2' of ('2', '1') is not an int"),
    ],
)
def test_partition_takes_int_parts_only(parts, message):
    with pytest.raises(ValueError) as exc:
        partition(parts)
    assert str(exc.value) == message


def test_dominant_representative_examples():
    assert dominant_representative((0, -1, 2)) == (2, 1)
    assert dominant_representative((1, 1, 1)) == (1, 1, 1)
    # matches the fan promotion cell with corners 111 / 000 / 000 -> 111
    assert dominant_representative((-1, -1, -1)) == (1, 1, 1)


@given(weight_vecs)
def test_dominant_idempotent(w):
    d = dominant_representative(w)
    assert dominant_representative(d) == d


@given(weight_vecs, st.randoms(use_true_random=False))
def test_dominant_invariant_under_signed_permutations(w, rng):
    shuffled = list(w)
    rng.shuffle(shuffled)
    flipped = tuple(x if rng.random() < 0.5 else -x for x in shuffled)
    assert dominant_representative(flipped) == dominant_representative(w)


def test_union_examples():
    assert union_parts((2, 1), (1, 1)) == (3, 2)
    assert union_parts((2, 1), ()) == (2, 1)
    assert union_parts((1,), (1,)) == (2,)


def test_intersect_examples():
    assert intersect_parts((2, 1), (1, 1)) == (1, 1)
    assert intersect_parts((3, 2), (3, 2)) == (3, 2)
    # doubled steps (1,) and (2,): 2*(1) meet 2*(2)
    assert intersect_parts((2,), (4,)) == (2,)


@given(partitions, partitions, partitions)
def test_union_intersect_algebra(p, q, s):
    assert union_parts(p, q) == union_parts(q, p)
    assert intersect_parts(p, q) == intersect_parts(q, p)
    assert union_parts(union_parts(p, q), s) == union_parts(p, union_parts(q, s))
    assert intersect_parts(intersect_parts(p, q), s) == intersect_parts(
        p, intersect_parts(q, s)
    )
    n = max(len(p), len(q)) or 1
    lo, hi = intersect_parts(p, q), union_parts(p, q)
    assert all(a <= b <= c for a, b, c in zip(pad(lo, n), pad(p, n), pad(hi, n)))


def test_step_classify_examples():
    assert step_classify((1, 1), (2, 1)) == ("add_box", 1)
    assert step_classify((2, 1), (1, 1)) == ("remove_box", 1)
    assert step_classify((2, 2), (2, 2)) == ("equal", None)
    assert step_classify((1, 1), (2, 2)) == ("vertical_strip", None)
    assert step_classify((2, 2), (1, 1)) == ("other", None)
    assert step_classify((1,), (3,)) == ("horizontal_strip", None)


def _column_multiplicities(p, q):
    """Cells of q/p per column, by brute force over the diagrams."""
    cells = {}
    n = max(len(p), len(q))
    pp, qq = pad(p, n), pad(q, n)
    for row in range(n):
        for col in range(pp[row], qq[row]):
            cells[col] = cells.get(col, 0) + 1
    return cells


@given(partitions, partitions)
def test_strip_predicates_against_brute_force(p, q):
    n = max(len(p), len(q))
    grows = all(a <= b for a, b in zip(pad(p, n), pad(q, n)))
    if not grows:
        assert not is_vertical_strip(p, q)
        assert not is_horizontal_strip(p, q)
        return
    cols = _column_multiplicities(p, q)
    rows = {}
    for row in range(n):
        d = pad(q, n)[row] - pad(p, n)[row]
        if d:
            rows[row] = d
    assert is_vertical_strip(p, q) == all(v <= 1 for v in rows.values())
    assert is_horizontal_strip(p, q) == all(v <= 1 for v in cols.values())


@given(partitions)
def test_trim_fixed_point(p):
    assert trim(p) == p
    assert partition(p) == p


def test_root_systems():
    b3 = root_system("B", 3)
    c3 = root_system("C", 3)
    assert b3.simple_roots == ((1, -1, 0), (0, 1, -1), (0, 0, 1))
    assert c3.simple_roots == ((1, -1, 0), (0, 1, -1), (0, 0, 2))
    with pytest.raises(ValueError):
        root_system("D", 3)
