import pytest

from crystalchords.crystals import (
    BVEC,
    CVEC,
    FAN,
    OSCILLATING,
    SPIN,
    VACILLATING,
    Word,
    enumerate_zero,
    letters,
    tableau,
    tableau_to_word,
    word_to_tableau,
)
from crystalchords.virtual import (
    NotInImage,
    embedded_word,
    iota_f_to_o,
    iota_inverse,
    iota_v_to_f,
    iota_v_to_o,
    phi_vec,
    psi_spin,
    psi_vec,
)

from oracles import (
    LOWER,
    RAISE,
    apply_letter_op,
    bvec_word_image,
    iota_f_to_o_by_letters,
    iota_v_to_f_by_cases,
    iota_v_to_o_by_cases,
    spin_word_image,
    tensor_apply,
    virtual_apply,
)

VAC9 = tableau(
    VACILLATING,
    3,
    [(), (1,), (2,), (2, 1), (2, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1), (1,), ()],
)


def test_psi_spin_examples():
    assert psi_spin((1, 1, 1), 3) == (1, 2, 3)
    assert psi_spin((-1, -1, -1), 3) == (-3, -2, -1)
    assert psi_spin((1, 1, -1), 3) == (1, 2, -3)


def test_psi_vec_examples():
    assert psi_vec(1, 2) == (1, 1)
    assert psi_vec(0, 2) == (-2, 2)
    assert psi_vec(-2, 2) == (-2, -2)


def test_phi_vec_examples():
    assert [phi_vec(b, 1) for b in (1, 0, -1)] == [((1,), (1,)), ((-1,), (1,)), ((-1,), (-1,))]
    assert phi_vec(2, 2) == ((1, 1), (-1, 1))
    assert phi_vec(0, 2) == ((1, -1), (-1, 1))
    assert phi_vec(-1, 2) == ((-1, 1), (-1, -1))
    assert phi_vec(1, 3) == ((1, 1, 1), (1, -1, -1))
    assert phi_vec(0, 3) == ((1, 1, -1), (-1, -1, 1))
    assert phi_vec(-2, 3) == ((1, -1, 1), (-1, -1, -1))


def test_iota_f_to_o_small():
    f = tableau(FAN, 2, [(), (1, 1), ()])
    assert iota_f_to_o(f).steps == ((), (1,), (1, 1), (1,), ())
    empty = tableau(FAN, 2, [()])
    assert iota_f_to_o(empty).steps == ((),)


def test_iota_v_to_o_examples():
    assert iota_v_to_o(VAC9).steps == (
        (), (1,), (2,), (3,), (4,), (4, 1), (4, 2), (4, 2, 1), (4, 2, 2),
        (3, 2, 2), (2, 2, 2), (2, 2, 1), (2, 2, 2), (2, 2, 1), (2, 2),
        (2, 1), (2,), (1,), (),
    )
    v = tableau(VACILLATING, 1, [(), (1,), ()])
    assert iota_v_to_o(v).steps == ((), (1,), (2,), (1,), ())


def test_iota_v_to_o_equal_step():
    v = tableau(VACILLATING, 2, [(), (1,), (1, 1), (1, 1), (1,), ()])
    o = iota_v_to_o(v)
    # the odd step between the equal partitions is 2*(1,1) - e_2
    assert o.steps[5] == (2, 1)


def test_iota_v_to_f_examples():
    v = tableau(VACILLATING, 3, [(), (1,), ()])
    assert iota_v_to_f(v).steps == ((), (1, 1, 1), (2,), (1, 1, 1), ())
    v2 = tableau(VACILLATING, 2, [(), (1,), (1, 1), (1, 1), (1,), ()])
    assert iota_v_to_f(v2).steps[5] == (3, 1)  # 2(1,1) + 1 - 2e_2
    empty = tableau(VACILLATING, 2, [()])
    assert iota_v_to_f(empty).steps == ((),)


def test_iota_v_to_f_equal_step_rank3():
    v = tableau(
        VACILLATING, 3, [(), (1,), (1, 1), (1, 1, 1), (1, 1, 1), (1, 1), (1,), ()]
    )
    f = iota_v_to_f(v)
    assert f.steps[7] == (3, 3, 1)  # 2(1,1,1) + 1 - 2e_3


def test_iota_inverse_round_trips():
    assert iota_inverse((VACILLATING, OSCILLATING), iota_v_to_o(VAC9)) == VAC9
    for r in (1, 2):
        for n in range(0, 6):
            for v in enumerate_zero(VACILLATING, r, n):
                assert iota_inverse((VACILLATING, OSCILLATING), iota_v_to_o(v)) == v
                assert iota_inverse((VACILLATING, FAN), iota_v_to_f(v)) == v
            for f in enumerate_zero(FAN, r, n):
                assert iota_inverse((FAN, OSCILLATING), iota_f_to_o(f)) == f


def test_iota_inverse_not_in_image():
    o = tableau(OSCILLATING, 2, [(), (1,), ()])
    with pytest.raises(NotInImage):
        iota_inverse((FAN, OSCILLATING), o)
    with pytest.raises(NotInImage):
        iota_inverse((VACILLATING, OSCILLATING), tableau(OSCILLATING, 1, [(), (1,), ()]))
    # halves (), (1,): a vacillating tableau, but not of weight zero
    with pytest.raises(NotInImage, match="^weight is not zero$"):
        iota_inverse((VACILLATING, OSCILLATING), tableau(OSCILLATING, 1, [(), (1,), (2,)]))
    with pytest.raises(ValueError):
        iota_inverse((OSCILLATING, FAN), o)


@pytest.mark.parametrize(
    "source,target,forward",
    [
        (FAN, OSCILLATING, iota_f_to_o),
        (VACILLATING, OSCILLATING, iota_v_to_o),
        (VACILLATING, FAN, iota_v_to_f),
    ],
)
def test_iota_inverse_succeeds_exactly_on_the_image(source, target, forward):
    """On every weight-zero target tableau (r <= 3, length <= 10, osc r = 3 to 8),
    iota_inverse returns the preimage when there is one and raises NotInImage,
    never another exception, otherwise."""
    checked = hits = 0
    for r in (1, 2, 3):
        k = r if source == FAN else 2
        for n in range(9 if (target, r) == (OSCILLATING, 3) else 11):
            preimage = {}
            if n % k == 0:
                preimage = {forward(s): s for s in enumerate_zero(source, r, n // k)}
            for t in enumerate_zero(target, r, n):
                checked += 1
                if t in preimage:
                    hits += 1
                    s = iota_inverse((source, target), t)
                    assert s == preimage[t] and forward(s) == t
                else:
                    with pytest.raises(NotInImage):
                        iota_inverse((source, target), t)
    assert checked > hits > 0 and checked - hits > 100


def _word(kind, r, xs):
    return Word(kind, r, tuple(xs))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_psi_spin_intertwines_operators(r):
    for eps in letters(SPIN, r):
        image = _word(CVEC, r, psi_spin(eps, r))
        for i in range(1, r + 1):
            for direction in (LOWER, RAISE):
                moved = apply_letter_op(SPIN, r, i, direction, eps)
                virt = virtual_apply(image, i, direction)
                if moved is None:
                    assert virt is None
                else:
                    assert virt is not None
                    assert virt.letters == psi_spin(moved, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_psi_vec_intertwines_operators(r):
    for b in letters(BVEC, r):
        image = _word(CVEC, r, psi_vec(b, r))
        for i in range(1, r + 1):
            for direction in (LOWER, RAISE):
                moved = apply_letter_op(BVEC, r, i, direction, b)
                virt = virtual_apply(image, i, direction)
                if moved is None:
                    assert virt is None
                else:
                    assert virt is not None
                    assert virt.letters == psi_vec(moved, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_phi_vec_intertwines_operators(r):
    """phi_vec is a crystal embedding into spin (x) spin: every operator acts once."""
    for b in letters(BVEC, r):
        image = _word(SPIN, r, phi_vec(b, r))
        for i in range(1, r + 1):
            for direction in (LOWER, RAISE):
                moved = apply_letter_op(BVEC, r, i, direction, b)
                out = tensor_apply(image, i, direction)
                if moved is None:
                    assert out is None
                else:
                    assert out is not None
                    assert out.letters == phi_vec(moved, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_virtual_closure(r):
    spin_images = {psi_spin(eps, r) for eps in letters(SPIN, r)}
    vec_images = {psi_vec(b, r) for b in letters(BVEC, r)}
    for images in (spin_images, vec_images):
        for img in images:
            for i in range(1, r + 1):
                for direction in (LOWER, RAISE):
                    out = virtual_apply(_word(CVEC, r, img), i, direction)
                    assert out is None or out.letters in images


@pytest.mark.parametrize("r,nmax", [(1, 6), (2, 6), (3, 4)])
def test_iota_images_valid_and_injective(r, nmax):
    for n in range(nmax + 1):
        fans = enumerate_zero(FAN, r, n)
        images = [iota_f_to_o(f) for f in fans]
        for img in images:
            assert img.family == OSCILLATING and len(img) == r * n
        assert len(set(images)) == len(fans)
        if r <= 2:
            vacs = enumerate_zero(VACILLATING, r, n)
            o_images = [iota_v_to_o(v) for v in vacs]
            f_images = [iota_v_to_f(v) for v in vacs]
            assert len(set(o_images)) == len(vacs)
            assert len(set(f_images)) == len(vacs)
            for img in o_images + f_images:
                assert len(img) == 2 * n


@pytest.mark.parametrize("r,nmax", [(1, 6), (2, 5), (3, 4)])
def test_iota_f_to_o_matches_word_concatenation(r, nmax):
    """The step formula agrees with pushing letter images through the words."""
    for n in range(nmax + 1):
        for f in enumerate_zero(FAN, r, n):
            via_words = word_to_tableau(spin_word_image(tableau_to_word(f)))
            assert via_words.steps == iota_f_to_o(f).steps


@pytest.mark.parametrize("r,nmax", [(1, 6), (2, 5)])
def test_iota_v_to_o_matches_word_concatenation(r, nmax):
    for n in range(nmax + 1):
        for v in enumerate_zero(VACILLATING, r, n):
            via_words = word_to_tableau(bvec_word_image(tableau_to_word(v)))
            assert via_words.steps == iota_v_to_o(v).steps


@pytest.mark.parametrize("r", [1, 2, 3])
def test_embeddings_on_padded_vectors_match_their_stepwise_definitions(r):
    """iota_f_to_o adds letter weights, and iota_v_to_o and iota_v_to_f have one case
    per step kind."""
    for n in range(8 + 1):
        for f in enumerate_zero(FAN, r, n):
            assert iota_f_to_o(f) == iota_f_to_o_by_letters(f), f
    for n in range(7 + 1):
        for v in enumerate_zero(VACILLATING, r, n):
            assert iota_v_to_o(v) == iota_v_to_o_by_cases(v), v
            assert iota_v_to_f(v) == iota_v_to_f_by_cases(v), v


@pytest.mark.parametrize("r", [1, 2, 3])
def test_embedded_word_is_the_word_of_each_oracle_embedding(r):
    cases = [
        (FAN, OSCILLATING, iota_f_to_o_by_letters),
        (VACILLATING, OSCILLATING, iota_v_to_o_by_cases),
        (VACILLATING, FAN, iota_v_to_f_by_cases),
    ]
    for source, target, oracle in cases:
        for n in range(7 + 1):
            for t in enumerate_zero(source, r, n):
                assert embedded_word(t, target) == list(tableau_to_word(oracle(t)).letters), t
    with pytest.raises(ValueError, match=r"^no embedding for \('fan', 'vacillating'\)$"):
        embedded_word(tableau(FAN, 1, [()]), VACILLATING)
