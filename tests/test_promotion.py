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
from crystalchords.promotion import chord_matrix, promote, rotate_matrix
from crystalchords.virtual import iota_f_to_o

import oracles
from oracles import fill_value, local_rule


def orbit_rows(t):
    """Steps of pr^0(T), ..., pr^(n-1)(T), from promote."""
    rows, cur = [], t
    for _ in range(len(t)):
        rows.append(cur.steps)
        cur = promote(cur)
    return tuple(rows)


def orbit_grid(t):
    return oracles.PromotionGrid(len(t), t.rank, orbit_rows(t))


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
    grid = orbit_grid(FAN8)
    assert grid.rows[0] == FAN8.steps
    for i in range(9):
        for j in range(9):
            assert grid.entry(i, j) == FAN8_PROMOTION_CORNERS[i][j]


def test_promotion_grid_two_step():
    o = tableau(OSCILLATING, 1, [(), (1,), ()])
    grid = orbit_grid(o)
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
                assert orbit_rows(t) == oracles.promotion_grid(t).rows


def _walk(family, r, word):
    """Padded steps and fills of one promotion row over a word of letters, on a fresh table."""
    from crystalchords.promotion import _LocalRule, _promote_row
    from crystalchords.weights import pad

    rule = _LocalRule(family, r)
    row = _promote_row(rule, word)
    s, fills = rule.zero, []
    for a in word[1:]:
        s, _, f = s[a]
        fills.append(f)
    return [pad(s.label, r) for s in row], fills


def test_sweep_checks_every_new_step():
    """The table raises validation's message on a step its family forbids.

    The rule reads letters of the family's crystal, so from the empty
    partition a sweep meets a forbidden step only at its exit; the cells
    that a forged state forbids are pinned by the two tests after this one.
    """
    row, fills = _walk(OSCILLATING, 1, (1, -1))
    # kappa + nu - lambda = (-1,): one negative entry
    assert row == [(0,), (1,), (0,)] and fills == [1]
    # the last step, into the empty partition, is checked too
    with pytest.raises(ValueError, match=r"^oscillating step \(2,\) -> \(\) must add or remove one box$"):
        _walk(OSCILLATING, 1, (1, 1, 1))
    with pytest.raises(ValueError, match=r"^fan step \(2,\) -> \(\) must change every part by one$"):
        _walk(FAN, 1, ((1,), (1,), (1,)))


def test_chord_matrix_requires_weight_zero():
    with pytest.raises(ValueError, match="weight zero"):
        chord_matrix("M_O", tableau(OSCILLATING, 1, [(), (1,)]))
    assert chord_matrix("M_O", tableau(OSCILLATING, 1, [()])) == ()


def _outcome(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("family", [OSCILLATING, FAN])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sweep_step_test_matches_check_step(family, r):
    """The table accepts exactly check_step's steps, with its message.

    From state a the letter of weight d gives kappa + nu - lambda = a + d,
    so the entry is the step a -> dom(a + d) of oracles.local_rule; the exit
    from a is the step a -> ().  A rejected entry is never stored.
    """
    from crystalchords.crystals import FAMILY_KIND, check_step, letter_weight, letters
    from crystalchords.promotion import _LocalRule
    from crystalchords.weights import pad, trim

    kind = FAMILY_KIND[family]
    box = [pad(p, r) for p in oracles.box_partitions(r, 3)]
    rule = _LocalRule(family, r)
    zero = (0,) * r
    accepted = rejected = 0
    for a in box:
        s = rule.states[trim(a)]
        assert _outcome(rule.exits.__getitem__, s) == _outcome(check_step, family, a, zero), a
        for x in letters(kind, r):
            b = pad(local_rule(zero, a, letter_weight(kind, r, x)), r)
            want = _outcome(check_step, family, a, b)
            assert _outcome(s.__getitem__, x) == want, (a, x)
            if want is None:
                nxt, out, _ = s[x]
                assert pad(nxt.label, r) == b and letter_weight(kind, r, out) == tuple(
                    q - p for p, q in zip(a, b)
                )
                accepted += 1
            else:
                assert x not in s
                rejected += 1
    assert accepted > 0
    # from a partition every C-letter adds or removes one box; a fan state whose
    # parts differ in parity, such as (1,) at r = 2, meets steps that move a
    # part by 0 or 2
    assert (rejected > 0) == (family == FAN and r > 1)


def test_forbidden_transition_raises_every_time():
    """A forbidden entry is never stored: its second encounter raises the first one's message."""
    from crystalchords.promotion import _LocalRule, _promote_row

    fan = _LocalRule(FAN, 2)
    s, a = fan.states[(1,)], (-1, -1)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^fan step \(1,\) -> \(1,\) must change every part by one$"):
            s[a]
        assert a not in s
    rule = _LocalRule(OSCILLATING, 2)
    bad_exit = rule.states[(2,)]
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^oscillating step \(2,\) -> \(\) must add or remove one box$"):
            rule.exits[bad_exit]
        assert bad_exit not in rule.exits
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^oscillating step \(2,\) -> \(\) must add or remove one box$"):
            _promote_row(rule, (1, 1, 1))
        assert bad_exit not in rule.exits


def test_fan_and_oscillating_tables_share_no_entry():
    """A state stored by one family's table is still judged by the other's rule."""
    from crystalchords.promotion import _local_rule
    from crystalchords.weights import pad

    fan, osc = _local_rule(FAN, 2), _local_rule(OSCILLATING, 2)
    assert fan is not osc and _local_rule(FAN, 2) is fan
    # (1, 1) + (-1, -1) = (): a fan step, no oscillating one
    nxt, _, fill = fan.states[(1, 1)][(-1, -1)]
    assert pad(nxt.label, 2) == (0, 0) and fill == 0
    assert fan.exits[fan.states[(1, 1)]] == (-1, -1)
    with pytest.raises(ValueError, match=r"^oscillating step \(1, 1\) -> \(\) must add or remove one box$"):
        osc.exits[osc.states[(1, 1)]]
    # (1, 0) + e_2 = (1, 1): an oscillating step; the fan state (1, 0) plus
    # (-1, -1) stays at (1, 0), no fan step
    nxt, _, fill = osc.states[(1,)][2]
    assert pad(nxt.label, 2) == (1, 1) and fill == 0
    with pytest.raises(ValueError, match=r"^fan step \(1,\) -> \(1,\) must change every part by one$"):
        fan.states[(1,)][(-1, -1)]


def _pin_table(t, fill_rule):
    """Walk every row of t's promotion matrix through the shared table, cell by cell,
    against oracles.local_rule and oracles.fill_value; returns the cells checked."""
    from crystalchords.crystals import step_letters
    from crystalchords.promotion import _local_rule
    from crystalchords.weights import pad

    n, r = len(t), t.rank
    rule = _local_rule(t.family, r)
    prev = t.steps
    word = step_letters(t.family, r, prev)
    cells = 0
    for _ in range(n):
        new = oracles.promote_steps(prev, r)
        s, out = rule.zero, []
        for k in range(1, n):
            lam, kap, nu = pad(prev[k], r), pad(new[k - 1], r), pad(prev[k + 1], r)
            assert pad(s.label, r) == kap
            s, b, f = s[word[k]]
            assert pad(s.label, r) == pad(local_rule(lam, kap, nu), r), (t, lam, kap, nu)
            assert f == fill_value(fill_rule, lam, kap, nu), (t, lam, kap, nu)
            out.append(b)
            cells += 1
        out.append(rule.exits[s])
        # the diagonal cell: lambda empty, kappa the last inner step, nu the first
        assert s[word[0]][2] == fill_value(fill_rule, (), new[n - 1], prev[1]), t
        word, prev = tuple(out), new
        assert word == step_letters(t.family, r, prev), t
    return cells


@pytest.mark.parametrize("family,rule,rmax,nmax", [(OSCILLATING, "osc", 3, 8), (FAN, "fan", 3, 8)])
def test_table_matches_local_rule_and_fill(family, rule, rmax, nmax):
    cells = 0
    for r in range(1, rmax + 1):
        for n in range(nmax + 1):
            for t in enumerate_zero(family, r, n):
                cells += _pin_table(t, rule)
    assert cells > 1000


def test_table_matches_local_rule_and_fill_through_both_embeddings():
    from crystalchords.virtual import iota_v_to_f, iota_v_to_o

    cells = 0
    for r in range(1, 4):
        for n in range(8):
            for t in enumerate_zero(VACILLATING, r, n):
                cells += _pin_table(iota_v_to_o(t), "osc")
                cells += _pin_table(iota_v_to_f(t), "fan")
    assert cells > 1000


def test_vacillating_promote_matches_embedding_round_trip():
    """promote equals the inverse embedding of pr_O^2(iota_v_to_o(t)) on vac r <= 3, n <= 7."""
    count = 0
    for r in range(1, 4):
        for n in range(8):
            for t in enumerate_zero(VACILLATING, r, n):
                assert promote(t) == oracles.promote_vacillating(t), t
                count += 1
    assert count > 100
    empty = tableau(VACILLATING, 2, [()])
    assert promote(empty) == empty


@pytest.mark.parametrize("family,r,n", [(FAN, 3, 10), (VACILLATING, 2, 10)])
def test_promote_matches_the_oracle_on_the_sieved_sets(family, r, n):
    """promote equals the padding oracles on every tableau that csp fan r=3 n=10 and
    vac r=2 n=10 promote."""
    items = enumerate_zero(family, r, n)
    assert len(items) == {FAN: 4719, VACILLATING: 945}[family]
    for t in items:
        if family == VACILLATING:
            assert promote(t) == oracles.promote_vacillating(t), t
        else:
            assert promote(t).steps == oracles.promote_steps(t.steps, r), t


def test_promote_checks_each_stored_entry_once(monkeypatch):
    """A second promotion of the same tableaux runs no step check and reads no block
    back, so it halves nothing: every check ran when its entry was stored."""
    from functools import cache

    from crystalchords import promotion, virtual

    items = [t for fam in (OSCILLATING, FAN, VACILLATING) for t in enumerate_zero(fam, 2, 6)]
    calls = []

    def counted(f):
        return lambda *args: calls.append(f.__name__) or f(*args)

    monkeypatch.setattr(promotion, "_local_rule", cache(promotion._LocalRule))
    monkeypatch.setattr(promotion, "check_step", counted(promotion.check_step))
    monkeypatch.setattr(virtual, "halve", counted(virtual.halve))
    first = [promote(t) for t in items]
    assert {"check_step", "halve"} <= set(calls)
    calls.clear()
    assert [promote(t) for t in items] == first
    assert calls == []


@pytest.mark.parametrize(
    "steps,forged",
    [
        # an odd part at an even position
        ([(), (1,), ()], [(), (1,), (1, 1), (1,), ()]),
        # position 5 forged from (2, 1) to (3, 2), between the doubled (1, 1)s
        (
            [(), (1,), (1, 1), (1, 1), (1,), ()],
            [(), (1,), (2,), (2, 1), (2, 2), (3, 2), (2, 2), (2, 1), (2,), (1,), ()],
        ),
        # halves (), (1,), (1,), (1,), (): a repeat without all parts positive
        (
            [(), (1,), (1, 1), (1,), ()],
            [(), (1,), (2,), (2, 1), (2,), (1,), (2,), (1,), ()],
        ),
    ],
)
def test_vacillating_promote_rejects_a_forged_image(monkeypatch, steps, forged):
    """A pr_O^2 that left the image raises NotInImage with the inverse embedding's message,
    every time it is met, and its failing entry is never stored."""
    from crystalchords import promotion
    from crystalchords.virtual import NotInImage, iota_inverse

    with pytest.raises(NotInImage) as want:
        iota_inverse((VACILLATING, OSCILLATING), tableau(OSCILLATING, 2, forged))
    t = tableau(VACILLATING, 2, steps)
    rule = promotion._LocalRule(OSCILLATING, 2)
    row = [rule.states[p] for p in forged]
    monkeypatch.setattr(promotion, "_local_rule", lambda family, rank: rule)
    monkeypatch.setattr(promotion, "_promote_twice", lambda rule, word: row)
    entries = [tuple(row[k : k + 3]) for k in range(0, len(row) - 1, 2)]
    for _ in range(2):
        with pytest.raises(NotInImage) as got:
            promote(t)
        assert str(got.value) == str(want.value)
        # the entries before the failing one passed their checks and are kept
        stored = [e in rule.vacillating for e in entries]
        bad = stored.index(False)
        assert not any(stored[bad:]) and len(rule.vacillating) == bad


def test_the_exit_of_the_second_row_of_pr_o_squared_is_checked(monkeypatch):
    """One forged pair entry makes row 2 of pr_O^2 end on (1, 1), which has no
    step into the empty partition: the exit check raises its message every
    time, and no exit or vacillating entry is stored."""
    from crystalchords import promotion
    from crystalchords.virtual import embedded_word

    v = tableau(VACILLATING, 2, [(), (1,), ()])
    rule = promotion._LocalRule(OSCILLATING, 2)
    monkeypatch.setattr(promotion, "_local_rule", lambda family, rank: rule)
    assert promote(v).steps == v.steps
    word = embedded_word(v, OSCILLATING)
    p = rule.pairs[rule.zero[word[1]][0], rule.zero]
    for a in word[2:-1]:
        p = p[a][0]
    nxt, c, f, g = p[word[-1]]
    s = nxt.label[0]
    # row 1 still ends on s, whose exit passes; (2, 1) steps to (1, 1) on that exit
    p[word[-1]] = (rule.pairs[s, rule.states[(2, 1)]], c, f, g)
    before = len(rule.exits), len(rule.vacillating)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            promote(v)
        assert str(info.value) == "oscillating step (1, 1) -> () must add or remove one box"
        assert rule.states[(1, 1)] not in rule.exits
        assert (len(rule.exits), len(rule.vacillating)) == before


def test_the_diagonal_cells_of_every_deep_rule_fill_zero():
    """The promotion matrix skips its diagonal cells: there kappa and nu are the
    partitions a step away from empty, and on every such pair, for each family
    and rank that a --deep chord map runs on, the cell passes check_step and
    fills 0."""
    from crystalchords.cli import VERIFY_RANGES
    from crystalchords.crystals import _children, step_letters
    from crystalchords.promotion import _LocalRule

    ranks = {OSCILLATING: set(), FAN: set()}
    for family, (_, (rmax, _)) in VERIFY_RANGES.items():
        # M_VO and M_VF run the oscillating and fan rules at the vacillating rank
        for rule_family in ranks if family == VACILLATING else (family,):
            ranks[rule_family].update(range(1, rmax + 1))
    count = 0
    for family, rs in ranks.items():
        for r in sorted(rs):
            # a fresh rule: its cells are computed here, not read from a table
            rule = _LocalRule(family, r)
            ones = _children(family, r, ())
            for kappa in ones:
                for nu in ones:
                    (a,) = step_letters(family, r, ((), nu))
                    assert rule.states[kappa][a][2] == 0, (family, r, kappa, nu)
                    count += 1
    assert count == 6


def test_vacillating_chord_maps_build_no_validating_embedding(monkeypatch):
    """M_VO and M_VF run on the embedded words of the validated input; the
    public embeddings, which validate, are never called."""
    from crystalchords import virtual

    cases = [
        (tag, t, oracles.chord_matrix(tag, t))
        for r in (1, 2, 3)
        for n in range(7)
        for t in enumerate_zero(VACILLATING, r, n)
        for tag in ("M_VO", "M_VF")
    ]
    assert len(cases) > 100

    def forbidden(*args):
        raise AssertionError("a chord map built a validating embedding")

    monkeypatch.setattr(virtual, "_embed", forbidden)
    for tag, t, want in cases:
        assert chord_matrix(tag, t) == want, (tag, t)
    with pytest.raises(ValueError, match="^promotion requires weight zero$"):
        chord_matrix("M_VO", tableau(VACILLATING, 1, [(), (1,)]))


def test_oscillating_chord_map_is_onto_the_3_noncrossing_matchings():
    """M_O on osc r = 2 is one-to-one into the perfect matchings with no three
    mutually crossing chords, and the listing is as large as that set, so M_O
    is onto it (Chen, Deng, Du, Stanley and Yan, Trans. AMS 2007)."""
    a005700 = [1, 1, 3, 14, 84, 594]
    for k, n in enumerate(range(0, 11, 2)):
        listing = enumerate_zero(OSCILLATING, 2, n)
        assert len(listing) == a005700[k]
        images = set()
        for t in listing:
            chords = oracles.matrix_chords(chord_matrix("M_O", t))
            assert chords is not None, t
            assert oracles.max_crossing(chords) <= 2, t
            images.add(tuple(chords))
        assert len(images) == len(listing)
        matchings = oracles.perfect_matchings(list(range(n)))
        assert len(images) == sum(oracles.max_crossing(c) <= 2 for c in matchings)


def test_crossing_oracles():
    assert oracles.max_crossing([]) == 0
    assert oracles.max_crossing([(0, 1), (2, 3)]) == 1
    assert oracles.max_crossing([(0, 2), (1, 3)]) == 2
    assert oracles.max_crossing([(0, 3), (1, 4), (2, 5)]) == 3
    assert oracles.max_crossing([(0, 5), (1, 4), (2, 3)]) == 1  # nesting
    assert oracles.matrix_chords(((0, 1), (1, 0))) == [(0, 1)]
    assert oracles.matrix_chords(((0, 2), (2, 0))) is None
    assert oracles.matrix_chords(((1, 0), (0, 1))) is None
    sizes = [len(list(oracles.perfect_matchings(list(range(n))))) for n in (0, 2, 4, 6)]
    assert sizes == [1, 1, 3, 15]
