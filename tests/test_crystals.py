import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from crystalchords.crystals import (
    BVEC,
    CVEC,
    FAN,
    KINDS,
    LOWER,
    OSCILLATING,
    RAISE,
    SPIN,
    VACILLATING,
    Word,
    all_prefixes_dominant,
    apply_letter_op,
    enumerate_zero,
    is_highest,
    iter_words,
    letter_weight,
    letters,
    string_stats,
    tableau,
    tableau_to_word,
    tensor_apply,
    validate_tableau,
    word_to_tableau,
    word_weight,
)
from crystalchords.weights import root_system, vec_sub

import oracles

FAN3_WORD = Word(SPIN, 3, ((1, 1, 1), (1, 1, -1), (-1, -1, 1), (-1, -1, -1)))
FAN3_STEPS = ((), (1, 1, 1), (2, 2), (1, 1, 1), ())


def test_letter_ops_examples():
    assert apply_letter_op(CVEC, 2, 2, LOWER, 2) == -2
    assert apply_letter_op(BVEC, 2, 2, LOWER, 0) == -2
    assert apply_letter_op(SPIN, 3, 1, LOWER, (1, -1, 1)) == (-1, 1, 1)
    assert apply_letter_op(BVEC, 2, 2, LOWER, 2) == 0
    assert apply_letter_op(BVEC, 2, 2, RAISE, 0) == 2
    assert apply_letter_op(CVEC, 2, 1, LOWER, -2) == -1
    assert apply_letter_op(CVEC, 2, 1, LOWER, 2) is None
    with pytest.raises(ValueError):
        apply_letter_op(CVEC, 2, 3, LOWER, 1)


def test_string_stats_examples():
    assert string_stats(CVEC, 2, 1, 1) == (0, 1)
    assert string_stats(BVEC, 2, 2, 2) == (0, 2)  # 2 -> 0 -> -2 under f_2
    assert string_stats(SPIN, 2, 2, (1, 1)) == (0, 1)


def test_tensor_apply_moves_rightmost_factor():
    w = Word(CVEC, 1, (1, 1))
    out = tensor_apply(w, 1, LOWER)
    assert out == Word(CVEC, 1, (-1, 1))


def test_tensor_apply_annihilates():
    # 1bar (x) 1 at rank 1: phi_1 of the word is zero
    assert tensor_apply(Word(CVEC, 1, (1, -1)), 1, LOWER) is None
    # a highest word of weight zero spans a trivial component, so every
    # operator annihilates it
    for i in (1, 2, 3):
        assert tensor_apply(FAN3_WORD, i, LOWER) is None
        assert tensor_apply(FAN3_WORD, i, RAISE) is None


def test_tensor_apply_partial_inverse_on_spin_word():
    w = Word(SPIN, 3, ((1, 1, 1), (1, 1, 1)))
    lowered = tensor_apply(w, 3, LOWER)
    assert lowered == Word(SPIN, 3, ((1, 1, -1), (1, 1, 1)))
    changed = [a != b for a, b in zip(lowered.letters, w.letters)]
    assert sum(changed) == 1
    assert tensor_apply(lowered, 3, RAISE) == w


def test_word_weight_examples():
    assert word_weight(FAN3_WORD) == (0, 0, 0)
    assert word_weight(Word(CVEC, 2, ())) == (0, 0)
    assert word_weight(Word(CVEC, 2, (-1,))) == (-1, 0)


def test_is_highest_examples():
    assert is_highest(Word(CVEC, 2, (1,)))
    assert not is_highest(Word(CVEC, 2, (2,)))
    assert is_highest(FAN3_WORD)


def test_word_to_tableau_fan_example():
    t = word_to_tableau(FAN3_WORD)
    assert t.family == FAN
    assert t.steps == FAN3_STEPS
    assert tableau_to_word(t) == FAN3_WORD


def test_word_to_tableau_oscillating():
    t = word_to_tableau(Word(CVEC, 1, (1, -1)))
    assert t.steps == ((), (1,), ())
    with pytest.raises(ValueError):
        word_to_tableau(Word(CVEC, 1, (-1, 1)))


def test_vacillating_word_round_trip():
    v = tableau(
        VACILLATING,
        3,
        [(), (1,), (2,), (2, 1), (2, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1), (1,), ()],
    )
    w = tableau_to_word(v)
    assert w.kind == BVEC and len(w) == 9
    assert word_to_tableau(w) == v


def test_tableau_validation():
    with pytest.raises(ValueError):
        tableau(OSCILLATING, 1, [(), (1, 1)])
    with pytest.raises(ValueError):
        tableau(FAN, 2, [(), (1,)])
    with pytest.raises(ValueError):
        tableau(VACILLATING, 2, [(), (1,), (1,), ()])  # equal step needs 2 parts
    tableau(VACILLATING, 1, [(), (1,), (1,), (1,), ()])


def fan_count_formula(n: int, r: int) -> int:
    """Product formula for the number of r-fans of length 2n."""
    value = Fraction(1)
    for i in range(1, n):
        for j in range(i, n):
            value *= Fraction(i + j + 2 * r, i + j)
    assert value.denominator == 1
    return int(value)


def test_enumerate_zero_fan_counts():
    assert len(enumerate_zero(FAN, 2, 4)) == 3
    assert fan_count_formula(4, 2) == 84
    assert len(enumerate_zero(FAN, 2, 8)) == 84


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("half", [1, 2, 3, 4, 5])
def test_fan_counts_match_product_formula(r, half):
    assert len(enumerate_zero(FAN, r, 2 * half)) == fan_count_formula(half, r)


def test_enumerate_zero_vacillating_brute_force():
    got = enumerate_zero(VACILLATING, 1, 2)
    assert [t.steps for t in got] == [((), (1,), ())]
    # oracle: filter all rank-1 bvec words by the raising operators
    expected = {
        word_to_tableau(w).steps
        for w in iter_words(BVEC, 1, 2)
        if is_highest(w) and word_weight(w) == (0,)
    }
    assert {t.steps for t in got} == expected


@pytest.mark.parametrize(
    "family,kind,r,n",
    [
        (OSCILLATING, CVEC, 2, 4),
        (FAN, SPIN, 2, 4),
        (VACILLATING, BVEC, 2, 4),
        (OSCILLATING, CVEC, 1, 6),
        (VACILLATING, BVEC, 1, 5),
    ],
)
def test_enumerate_zero_matches_word_filter(family, kind, r, n):
    zero = (0,) * r
    expected = {
        word_to_tableau(w).steps
        for w in iter_words(kind, r, n)
        if word_weight(w) == zero and is_highest(w)
    }
    got = [t.steps for t in enumerate_zero(family, r, n)]
    assert set(got) == expected
    assert got == sorted(got), "enumeration must be lexicographic"


def _letter_cases():
    for kind in KINDS:
        for r in (1, 2, 3, 4):
            yield kind, r


def test_letter_partial_inverses():
    for kind, r in _letter_cases():
        roots = root_system("B" if kind != CVEC else "C", r).simple_roots
        for x in letters(kind, r):
            for i in range(1, r + 1):
                down = apply_letter_op(kind, r, i, LOWER, x)
                if down is not None:
                    assert apply_letter_op(kind, r, i, RAISE, down) == x
                    shift = vec_sub(
                        letter_weight(kind, r, down), letter_weight(kind, r, x)
                    )
                    factor = 2 if kind == SPIN else 1
                    assert shift == tuple(-factor * c for c in roots[i - 1])
                up = apply_letter_op(kind, r, i, RAISE, x)
                if up is not None:
                    assert apply_letter_op(kind, r, i, LOWER, up) == x


@pytest.mark.parametrize(
    "kind,r,n",
    [
        (CVEC, 1, 5),
        (CVEC, 2, 4),
        (CVEC, 3, 3),
        (BVEC, 1, 5),
        (BVEC, 2, 4),
        (SPIN, 2, 5),
        (SPIN, 3, 4),
    ],
)
def test_word_partial_inverses_and_weight_shift(kind, r, n):
    roots = root_system("B" if kind != CVEC else "C", r).simple_roots
    factor = 2 if kind == SPIN else 1
    for w in iter_words(kind, r, n):
        for i in range(1, r + 1):
            down = tensor_apply(w, i, LOWER)
            if down is not None:
                assert tensor_apply(down, i, RAISE) == w
                assert vec_sub(word_weight(down), word_weight(w)) == tuple(
                    -factor * c for c in roots[i - 1]
                )
            up = tensor_apply(w, i, RAISE)
            if up is not None:
                assert tensor_apply(up, i, LOWER) == w


@pytest.mark.parametrize(
    "kind,r,n", [(CVEC, 2, 5), (SPIN, 2, 5), (CVEC, 3, 3), (SPIN, 3, 4)]
)
def test_minuscule_highest_iff_prefix_dominant(kind, r, n):
    for w in iter_words(kind, r, n):
        assert is_highest(w) == all_prefixes_dominant(w)


@pytest.mark.parametrize("r,n", [(1, 6), (2, 6)])
def test_vacillating_highest_characterization(r, n):
    """Highest bvec words are exactly those whose prefix sums vacillate."""
    for w in iter_words(BVEC, r, n):
        sums = [(0,) * r]
        ok = True
        for x in w.letters:
            from crystalchords.weights import is_partition, trim, vec_add

            nxt = vec_add(sums[-1], letter_weight(BVEC, r, x))
            if not is_partition(nxt):
                ok = False
                break
            if trim(nxt) == trim(sums[-1]) and len(trim(nxt)) != r:
                ok = False
                break
            sums.append(nxt)
        assert is_highest(w) == ok, w


def test_enumerate_zero_prefix_splitting():
    from crystalchords.crystals import _children

    full = enumerate_zero(FAN, 2, 6)
    split = []
    for q in _children(FAN, 2, ()):
        split.extend(enumerate_zero(FAN, 2, 6, prefix=[(), q]))
    assert split == full
    assert enumerate_zero(FAN, 2, 6, prefix=[(), (2,)]) == []
    with pytest.raises(ValueError):
        enumerate_zero(FAN, 2, 2, prefix=[(1, 1)])


def _validation_outcome(validate, family, r, steps):
    try:
        validate(SimpleNamespace(family=family, rank=r, steps=steps))
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("r", [1, 2, 3])
def test_validate_tableau_matches_step_classify_oracle(r):
    """Same verdict and message as classifying every step, on canonical and malformed input."""
    canonical = [
        tuple(sorted(c, reverse=True))
        for k in range(r + 2)
        for c in itertools.combinations_with_replacement((1, 2), k)
    ]
    malformed = [(0,), (1, 0), (1, 2), (-1,), [1], (2, 0, 0)]
    pool = canonical + malformed  # canonical includes partitions with r + 1 parts
    fitting = [p for p in canonical if len(p) <= r]
    sequences = [(), *itertools.product(pool, repeat=1), *itertools.product(pool, repeat=2)]
    for k in range(1, 5):
        sequences += [((), *rest) for rest in itertools.product(fitting, repeat=k)]
    accepted = 0
    for family in (OSCILLATING, FAN, VACILLATING, "other"):
        for steps in sequences:
            want = _validation_outcome(oracles.validate_tableau, family, r, steps)
            assert _validation_outcome(validate_tableau, family, r, steps) == want, (family, steps)
            accepted += want is None
    assert accepted > 10
