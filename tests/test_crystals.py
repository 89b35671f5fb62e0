import copy
import gc
import itertools
import pickle
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from types import SimpleNamespace

import pytest

from crystalchords.crystals import (
    BVEC,
    CVEC,
    FAMILIES,
    FAN,
    KINDS,
    OSCILLATING,
    SPIN,
    VACILLATING,
    TableauSeq,
    Word,
    _position_of,
    enumerate_zero,
    is_highest,
    letter_weight,
    letters,
    tableau,
    tableau_to_word,
    validate_tableau,
    word_to_tableau,
)
from crystalchords.weights import is_partition, pad, trim
import oracles
from oracles import (
    LOWER,
    RAISE,
    all_prefixes_dominant,
    apply_letter_op,
    iter_words,
    prefix_weights,
    root_system,
    string_stats,
    tensor_apply,
    vec_add,
    vec_sub,
    word_weight,
)

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
    with pytest.raises(
        ValueError, match=r"^word is not highest weight: prefix weight \(-1,\) is not a partition$"
    ):
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
    with pytest.raises(
        ValueError,
        match=r"^word is not highest weight: vacillating step may repeat \(\) only with all 2 parts positive$",
    ):
        word_to_tableau(Word(BVEC, 2, (0,)))


def test_tableau_validation():
    with pytest.raises(ValueError):
        tableau(OSCILLATING, 1, [(), (1, 1)])
    with pytest.raises(ValueError):
        tableau(FAN, 2, [(), (1,)])
    with pytest.raises(ValueError):
        tableau(VACILLATING, 2, [(), (1,), (1,), ()])  # equal step needs 2 parts
    tableau(VACILLATING, 1, [(), (1,), (1,), (1,), ()])


@pytest.mark.parametrize(
    "rank, steps, message",
    [
        (2.5, ((), (1, 1), ()), "rank must be an int, not float"),
        (True, ((), (1,), ()), "rank must be an int, not bool"),
        (2, ((), (1.0, 1), ()), "(1.0, 1) is not a canonical partition"),
        (2, ((), (True, True), ()), "(True, True) is not a canonical partition"),
        (2, ((), ("1", "1"), ()), "('1', '1') is not a canonical partition"),
    ],
)
def test_tableau_takes_int_ranks_and_parts_only(rank, steps, message):
    with pytest.raises(ValueError) as exc:
        TableauSeq(FAN, rank, steps)
    assert str(exc.value) == message


def test_remembered_steps_still_test_the_type_of_every_part():
    """Validation remembers the steps that passed, but True and 1.0 hash and
    compare as 1, so the exact int test still runs on every call."""
    from crystalchords.crystals import _step_table

    TableauSeq(FAN, 2, ((), (1, 1), ()))
    assert ((), (1, 1)) in _step_table(FAN, 2)
    for steps, message in [
        (((), (True, True), ()), "(True, True) is not a canonical partition"),
        (((), (1.0, 1), ()), "(1.0, 1) is not a canonical partition"),
    ]:
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                TableauSeq(FAN, 2, steps)
            assert str(exc.value) == message


def test_rejected_partitions_and_steps_raise_every_time_and_are_never_stored():
    from crystalchords.crystals import _step_table

    # (family, rank, steps, message, the table and the entry it must not hold);
    # a rejected partition leaves no step into it behind
    cases = [
        (FAN, 2, ((), (1, 2), ()), "(1, 2) is not a canonical partition", _step_table(FAN, 2), ((), (1, 2))),
        (
            FAN,
            2,
            ((), (1, 1, 0), ()),
            "(1, 1, 0) is not a canonical partition",
            _step_table(FAN, 2),
            ((), (1, 1, 0)),
        ),
        (FAN, 1, ((), (1, 1), ()), "(1, 1) has more than 1 parts", _step_table(FAN, 1), ((), (1, 1))),
        # every partition is checked before any step
        (FAN, 1, ((), (2,), (1, 1)), "(1, 1) has more than 1 parts", _step_table(FAN, 1), ((), (2,))),
        (
            FAN,
            2,
            ((), (1,), ()),
            "fan step () -> (1,) must change every part by one",
            _step_table(FAN, 2),
            ((), (1,)),
        ),
        (
            VACILLATING,
            2,
            ((), (1,), (1,), ()),
            "vacillating step may repeat (1,) only with all 2 parts positive",
            _step_table(VACILLATING, 2),
            ((1,), (1,)),
        ),
    ]
    for family, r, steps, message, table, entry in cases:
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                TableauSeq(family, r, steps)
            assert str(exc.value) == message
            assert entry not in table


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


def _prefix_steps(w):
    return tuple(trim(mu) for mu in prefix_weights(w))


def test_enumerate_zero_vacillating_brute_force():
    got = enumerate_zero(VACILLATING, 1, 2)
    assert [t.steps for t in got] == [((), (1,), ())]
    # oracle: filter all rank-1 bvec words by the raising operators
    expected = {
        _prefix_steps(w)
        for w in iter_words(BVEC, 1, 2)
        if oracles.is_highest(w) and word_weight(w) == (0,)
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
        _prefix_steps(w)
        for w in iter_words(kind, r, n)
        if word_weight(w) == zero and oracles.is_highest(w)
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


# (rank, longest word) over which the step rule is held to the operators
_HIGHEST_RANGES = ((1, 7), (2, 6), (3, 4))
_FAMILY_OF = {CVEC: OSCILLATING, SPIN: FAN, BVEC: VACILLATING}


def _matches_operator_definition(w) -> bool:
    """is_highest and word_to_tableau agree with the raising operators on w."""
    highest = oracles.is_highest(w)
    assert is_highest(w) == highest, w
    if highest:
        t = word_to_tableau(w)
        assert (t.family, t.rank, t.steps) == (_FAMILY_OF[w.kind], w.rank, _prefix_steps(w)), w
        validate_tableau(t)
    else:
        with pytest.raises(ValueError, match=r"^word is not highest weight: "):
            word_to_tableau(w)
    return highest


@pytest.mark.parametrize(
    "kind,r,n",
    [(kind, r, n) for kind in (CVEC, SPIN) for r, top in _HIGHEST_RANGES for n in range(top + 1)],
)
def test_minuscule_highest_iff_prefix_dominant(kind, r, n):
    for w in iter_words(kind, r, n):
        assert _matches_operator_definition(w) == all_prefixes_dominant(w), w


@pytest.mark.parametrize("r,n", [(r, n) for r, top in _HIGHEST_RANGES for n in range(top + 1)])
def test_vacillating_highest_characterization(r, n):
    """Highest bvec words are exactly those whose prefix sums vacillate."""
    for w in iter_words(BVEC, r, n):
        sums = [(0,) * r]
        ok = True
        for x in w.letters:
            nxt = vec_add(sums[-1], letter_weight(BVEC, r, x))
            if not is_partition(nxt):
                ok = False
                break
            if trim(nxt) == trim(sums[-1]) and len(trim(nxt)) != r:
                ok = False
                break
            sums.append(nxt)
        assert _matches_operator_definition(w) == ok, w


def test_enumerate_zero_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_zero(FAN, 3, 6)) == 30
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "r, cvec, bvec",
    [
        (1, {1: 0, -1: 1}, {1: 0, 0: 1, -1: 2}),
        (2, {1: 0, 2: 1, -2: 2, -1: 3}, {1: 0, 2: 1, 0: 2, -2: 3, -1: 4}),
        (
            3,
            {1: 0, 2: 1, 3: 2, -3: 3, -2: 4, -1: 5},
            {1: 0, 2: 1, 3: 2, 0: 3, -3: 4, -2: 5, -1: 6},
        ),
    ],
    ids=["1", "2", "3"],
)
def test_cvec_order_follows_letters(r, cvec, bvec):
    """1 < ... < r < -r < ... < -1 for C-letters, with 0 between r and -r for B-letters."""
    assert _position_of(CVEC, r) == cvec
    assert _position_of(BVEC, r) == bvec


def _prefixes(family, r, length):
    """Every run of ``length`` partitions from () along next steps, in lexicographic order."""
    from crystalchords.crystals import _children

    runs = [((),)]
    for _ in range(length - 1):
        runs = [run + (q,) for run in runs for q in _children(family, r, run[-1])]
    return runs


def test_enumerate_zero_prefix_splitting():
    """Prefixes of every length, shorter than a head (n // 2 + 1 steps), as long
    and longer, split the listing at even n and at odd vacillating n: their
    listings, in prefix order, are the full one, and each equals the
    depth-first search's."""
    for family, r, n in [(FAN, 2, 6), (OSCILLATING, 2, 6), (VACILLATING, 2, 5), (VACILLATING, 1, 7)]:
        full = enumerate_zero(family, r, n)
        assert full
        for length in range(1, n + 2):
            split = []
            for run in _prefixes(family, r, length):
                part = enumerate_zero(family, r, n, prefix=run)
                assert part == oracles.enumerate_zero_by_dfs(family, r, n, prefix=run), run
                assert all(t.steps[:length] == run for t in part)
                split += part
            assert split == full, (family, r, n, length)
    assert enumerate_zero(FAN, 2, 6, prefix=[(), (2,)]) == []
    with pytest.raises(ValueError):
        enumerate_zero(FAN, 2, 2, prefix=[(1, 1)])


def test_a_whole_tableau_as_prefix_lists_itself():
    full = enumerate_zero(FAN, 2, 6)
    steps = full[-1].steps
    assert enumerate_zero(FAN, 2, 6, prefix=steps) == [full[-1]]
    assert enumerate_zero(FAN, 2, 6, prefix=steps[:-1] + ((1, 1),)) == []
    with pytest.raises(ValueError):
        enumerate_zero(FAN, 2, 2, prefix=[(), (1, 1), (), (1, 1)])


def _listing_scales():
    """Every --deep verify scale, the benchmark's listings, osc r=4 n=12 and vac r=2 n=12."""
    from crystalchords.cli import VERIFY_RANGES

    deep = [
        (family, r, n)
        for family, (_, (rmax, nmax)) in VERIFY_RANGES.items()
        for r in range(1, rmax + 1)
        for n in range(nmax + 1)
    ]
    bench = [(OSCILLATING, 4, 10), (FAN, 4, 8), (FAN, 3, 10), (VACILLATING, 2, 10)]
    return deep + bench + [(OSCILLATING, 4, 12), (VACILLATING, 2, 12)]


def test_enumerate_zero_equals_the_depth_first_search():
    """Heads with memoised tails list the same tableaux in the same order as
    one depth-first search over every step."""
    for family, r, n in _listing_scales():
        got = enumerate_zero(family, r, n)
        assert got == oracles.enumerate_zero_by_dfs(family, r, n), (family, r, n)
        assert [t.steps for t in got] == sorted(t.steps for t in got), (family, r, n)


def test_enumerate_zero_odd_length_checks_the_prefix_first():
    # only a vacillating tableau returns to empty in an odd number of steps
    assert enumerate_zero(OSCILLATING, 2, 5, prefix=[(), (1,)]) == []
    assert enumerate_zero(FAN, 2, 5, prefix=[(), (1, 1)]) == []
    assert [t.steps[:2] for t in enumerate_zero(VACILLATING, 1, 3, prefix=[(), (1,)])] == [((), (1,))]
    with pytest.raises(ValueError):
        enumerate_zero(FAN, 2, 5, prefix=[(1, 1)])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_enumerate_zero_takes_only_an_int_rank_and_length(family, bad):
    """A bool, float or str rank or length is refused with validate_tableau's wording,
    never listed and never a TypeError: True would share rank 1's tables."""
    name = type(bad).__name__
    with pytest.raises(ValueError, match=rf"^rank must be an int, not {name}$"):
        enumerate_zero(family, bad, 2)
    with pytest.raises(ValueError, match=rf"^length must be an int, not {name}$"):
        enumerate_zero(family, 2, bad)


@pytest.mark.parametrize("kind", [CVEC, BVEC])
def test_letter_weight_is_a_signed_unit_vector(kind):
    for r in range(1, 4):
        for x in letters(kind, r):
            e = oracles.unit_vector(abs(x), r) if x else (0,) * r
            assert letter_weight(kind, r, x) == (e if x > 0 else tuple(-c for c in e))


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


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_fan_children_match_sign_vector_definition(r):
    """Coordinate-wise children equal the sorted set over all 2^r sign vectors."""
    from crystalchords.crystals import _children

    for p in oracles.box_partitions(r, 4):
        assert list(_children(FAN, r, p)) == oracles.fan_children(r, p), p


@pytest.mark.parametrize("family", [OSCILLATING, VACILLATING])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_children_match_brute_force_over_candidates(family, r):
    """Single-box children equal every candidate within one that validation keeps."""
    from crystalchords.crystals import _children

    for p in oracles.box_partitions(r, 4):
        assert list(_children(family, r, p)) == oracles.children_by_validation(family, r, p), p


def test_children_are_memoised_tuples():
    from crystalchords.crystals import _children

    for family in (OSCILLATING, FAN, VACILLATING):
        first = _children(family, 2, (1, 1))
        assert type(first) is tuple and first
        assert _children(family, 2, (1, 1)) is first


def test_fan_listings_have_product_formula_sizes_at_scale():
    """Listing sizes of acceptance criterion 8 from a count that does not use _children."""
    assert len(enumerate_zero(FAN, 4, 10)) == fan_count_formula(5, 4) == 26026
    assert len(enumerate_zero(FAN, 3, 12)) == fan_count_formula(6, 3) == 81796


@pytest.mark.parametrize(
    "family,rmax,nmax", [(OSCILLATING, 3, 8), (FAN, 4, 8), (VACILLATING, 3, 7)]
)
def test_trusted_enumeration_matches_validated_listing(family, rmax, nmax):
    """The listing built without validation equals a brute-force validated one."""
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            got = enumerate_zero(family, r, n)
            assert got == oracles.enumerate_zero_validated(family, r, n), (r, n)
            for t in got:
                validate_tableau(t)


def test_trusted_and_validated_tableaux_are_interchangeable():
    steps = ((), (1,), (1, 1), (1,), ())
    trusted = TableauSeq._trusted(OSCILLATING, 2, steps)
    validated = TableauSeq(OSCILLATING, 2, steps)
    assert trusted == validated and validated == trusted
    assert hash(trusted) == hash(validated)
    assert len({trusted, validated}) == 1
    assert trusted != TableauSeq(OSCILLATING, 3, steps)
    word = Word._trusted(CVEC, 2, (1, 2, -2, -1))
    checked = Word(CVEC, 2, (1, 2, -2, -1))
    assert word == checked and checked == word
    assert hash(word) == hash(checked)
    assert len({word, checked}) == 1
    assert word != Word(CVEC, 3, (1, 2, -2, -1))
    assert tableau_to_word(trusted) == checked


@pytest.mark.parametrize(
    "trusted",
    [
        TableauSeq._trusted(OSCILLATING, 2, ((), (1,), (1, 1), (1,), ())),
        Word._trusted(CVEC, 2, (1, 2, -2, -1)),
    ],
    ids=["TableauSeq", "Word"],
)
def test_trusted_instances_are_frozen_slotted_and_copy_like_validated_ones(trusted):
    """The trusted constructors write the slots directly; the instance is as the
    dataclass's own __init__ would have left it."""
    cls = type(trusted)
    first = fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(trusted, first, getattr(trusted, first))
    with pytest.raises(FrozenInstanceError):
        delattr(trusted, first)
    assert not hasattr(trusted, "__dict__")
    for twin in (pickle.loads(pickle.dumps(trusted)), copy.copy(trusted), copy.deepcopy(trusted)):
        assert type(twin) is cls and twin == trusted
        assert twin == cls(*(getattr(trusted, f.name) for f in fields(cls)))


@pytest.mark.parametrize("family", [OSCILLATING, FAN, VACILLATING])
def test_tableau_to_word_equals_a_validated_word(family):
    """The word tableau_to_word builds without validation passes validation and maps back."""
    count = 0
    for r in range(1, 4):
        for n in range(9):
            for t in enumerate_zero(family, r, n):
                w = tableau_to_word(t)
                validated = Word(w.kind, w.rank, w.letters)
                assert w == validated and hash(w) == hash(validated), t
                assert word_to_tableau(w) == t
                count += 1
    assert count > 100
    # the public constructor still checks every letter
    with pytest.raises(ValueError, match=r"^0 is not a cvec letter of rank 2$"):
        Word(CVEC, 2, (1, 0))
    with pytest.raises(ValueError, match=r"^3 is not a bvec letter of rank 2$"):
        Word(BVEC, 2, (3,))
    with pytest.raises(ValueError, match=r"^\(1,\) is not a spin letter of rank 2$"):
        Word(SPIN, 2, ((1,),))


@pytest.mark.parametrize(
    "rank, message",
    [(2.5, "rank must be an int, not float"), (True, "rank must be an int, not bool")],
)
def test_word_takes_int_ranks_only(rank, message):
    """A word's rank keys the step and energy tables, where True would stand for 1."""
    for kind, x in ((CVEC, 1), (BVEC, 0), (SPIN, (1,))):
        with pytest.raises(ValueError) as exc:
            Word(kind, rank, (x,))
        assert str(exc.value) == message


@pytest.mark.parametrize("family", [OSCILLATING, FAN, VACILLATING])
def test_step_table_reads_the_letter_of_each_child_step(family):
    """The step table gives the letter of weight pad(b) - pad(a) on every step a -> b
    that the family allows from a partition in the r x 3 box."""
    from crystalchords.crystals import FAMILY_KIND, _children, _letter_of, _step_table
    from crystalchords.weights import pad

    steps = 0
    for r in range(1, 4):
        kind = FAMILY_KIND[family]
        table = _step_table(family, r)
        assert _step_table(family, r) is table
        for a in oracles.box_partitions(r, 3):
            for b in _children(family, r, a):
                d = tuple(y - x for x, y in zip(pad(a, r), pad(b, r)))
                x = table[a, b]
                assert x == _letter_of(kind, r)[d] and letter_weight(kind, r, x) == d, (a, b)
                steps += 1
        # every stored entry, whichever call stored it, holds the same fact
        for (a, b), x in table.items():
            assert letter_weight(kind, r, x) == tuple(q - p for p, q in zip(pad(a, r), pad(b, r)))
    assert steps > 50


def test_step_table_pads_each_step_once(monkeypatch):
    """A second reading of the same tableaux pads nothing."""
    from crystalchords import crystals

    items = [t for fam in (OSCILLATING, FAN, VACILLATING) for t in enumerate_zero(fam, 2, 6)]
    words = [tableau_to_word(t) for t in items]
    calls = []
    monkeypatch.setattr(crystals, "pad", lambda *args: calls.append(args) or pad(*args))
    assert [tableau_to_word(t) for t in items] == words
    assert calls == []


def test_boundary_constructors_validate():
    """Every way in from outside still rejects a bad step sequence with validation's message."""
    from crystalchords.growth import InvalidOutput, growth_inverse
    from crystalchords.serialize import parse_tableau
    from crystalchords.virtual import NotInImage, iota_inverse

    with pytest.raises(ValueError, match=r"^oscillating step \(\) -> \(2,\) must add or remove one box$"):
        tableau(OSCILLATING, 2, [(), (2,), ()])
    with pytest.raises(ValueError, match=r"^oscillating step \(\) -> \(2,\) must add or remove one box$"):
        parse_tableau("-,2,-", OSCILLATING, 2)
    with pytest.raises(ValueError, match=r"^fan step \(\) -> \(1,\) must change every part by one$"):
        parse_tableau({"family": FAN, "r": 2, "steps": [[], [1], []]})
    # the hypotenuse of [[0]] is (), (), (): no oscillating tableau
    with pytest.raises(InvalidOutput, match=r"^oscillating step \(\) -> \(\) must add or remove one box$"):
        growth_inverse("zero_one", [[0]], OSCILLATING)
    # halves (), () of a length-2 tableau repeat () in rank 1
    with pytest.raises(NotInImage, match=r"^vacillating step may repeat \(\) only with all 1 parts positive$"):
        iota_inverse((VACILLATING, OSCILLATING), tableau(OSCILLATING, 1, [(), (1,), ()]))
    # steps 0 and 2 of a rank-2 oscillating tableau, () and (2,), are no fan step
    with pytest.raises(NotInImage, match=r"^fan step \(\) -> \(2,\) must change every part by one$"):
        iota_inverse((FAN, OSCILLATING), tableau(OSCILLATING, 2, [(), (1,), (2,), (1,), ()]))
