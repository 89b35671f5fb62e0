import functools
import itertools
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
)
from crystalchords.promotion import chord_matrix
from crystalchords.virtual import iota_f_to_o, iota_v_to_f, iota_v_to_o
from crystalchords.weights import is_partition, pad, trim

from oracles import box_partitions, matrix_from_triangle


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
    rows = growth_corners(t)
    n = len(t)
    for k, row in enumerate(expected):
        for l, label in enumerate(row):
            assert rows[n - k + l][l] == label, (k, l)


def _rows_of(corners, n):
    """The cell-by-cell oracle's corner dict as growth_corners' rows."""
    return [[corners[i, j] for j in range(i + 1)] for i in range(n + 1)]


def test_growth_corner_labels_golden():
    _assert_corner_rows(FAN8, FAN8_GROWTH_CORNERS)
    _assert_corner_rows(VAC9, VAC9_GROWTH_CORNERS)


def test_growth_borders_empty():
    for t in (FAN8, VAC9):
        rows = growth_corners(t)
        n = len(t)
        assert [len(row) for row in rows] == list(range(1, n + 2))
        assert all(row[0] == () for row in rows)
        assert all(p == () for p in rows[n])


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


@pytest.mark.parametrize(
    "triangle, family, message",
    [
        ([[0], [0]], OSCILLATING, "triangle row 2 must hold 2 non-negative integers"),
        ([[0, 0]], OSCILLATING, "triangle row 1 must hold 1 non-negative integers"),
        ([[0], [0, -1]], OSCILLATING, "triangle row 2 must hold 2 non-negative integers"),
        ([[0], [0.5, 0]], OSCILLATING, "triangle row 2 must hold 2 non-negative integers"),
        ([[True]], OSCILLATING, "triangle row 1 must hold 1 non-negative integers"),
        ([[0]], "bogus", "rule 'zero_one' does not build bogus tableaux"),
    ],
    ids=["short-row", "long-row", "negative-entry", "non-int-entry", "bool-entry", "unknown-family"],
)
def test_growth_inverse_checks_its_input_at_entry(triangle, family, message):
    with pytest.raises(ValueError) as info:
        growth_inverse("zero_one", triangle, family)
    assert str(info.value) == message


def test_cell_functions_validate_their_corners():
    # the public cell functions canonicalise and check what the sweeps trust
    assert cell_forward("zero_one", [1, 0], (1,), (1, 0, 0), 1) == (2,)
    assert cell_backward("rsk", (2, 0), [], ()) == ((), 2)
    cases = [
        (cell_forward, ("bogus", (), (), (), 0), "unknown rule set 'bogus'"),
        (cell_backward, ("bogus", (), (), ()), "unknown rule set 'bogus'"),
        (cell_forward, ("zero_one", (), (), (), -1), "filling must be non-negative"),
        (cell_forward, ("burge", (), (), (), 1.5), "filling must be an int, not float"),
        (cell_forward, ("rsk", (), (), (), 2.5), "filling must be an int, not float"),
        (cell_forward, ("zero_one", (), (), (), True), "filling must be an int, not bool"),
        (cell_forward, ("zero_one", (1, 2), (), (), 0), "not weakly decreasing: (1, 2)"),
        (cell_backward, ("burge", (0, -1), (), ()), "negative part: (0, -1)"),
        (cell_forward, ("burge", (), (2,), (), 0), "burge cell needs vertical strips over gamma"),
        (cell_backward, ("burge", (2,), (), ()), "burge cell needs vertical strips under beta"),
        (cell_forward, ("rsk", (), (1, 1), (), 0), "rsk cell needs horizontal strips over gamma"),
        (cell_backward, ("rsk", (1, 1), (), ()), "rsk cell needs horizontal strips under beta"),
        (
            cell_forward,
            ("zero_one", (), (2,), (), 0),
            "zero_one cell: () -> (2,) must be equal or add one box",
        ),
        (cell_forward, ("zero_one", (), (), (), 2), "zero_one filling must be 0 or 1"),
    ]
    for cell, args, message in cases:
        with pytest.raises(ValueError) as info:
            cell(*args)
        assert str(info.value) == message


def test_growth_sweeps_call_the_local_rules_directly(monkeypatch):
    """Neither sweep goes back through the public cell functions or partition()."""
    from crystalchords import growth

    def forbidden(*args):
        raise AssertionError("a sweep re-validated its corners")

    for name in ("cell_forward", "cell_backward", "partition"):
        monkeypatch.setattr(growth, name, forbidden)
    for family, r, n in ((OSCILLATING, 2, 6), (FAN, 2, 6), (VACILLATING, 2, 5)):
        rule = growth._FAMILY_RULE[family]
        for t in enumerate_zero(family, r, n):
            tri = lower_triangle_rows(growth_matrix(family, t))
            assert growth_inverse(rule, tri, family).steps == t.steps


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


def test_blowup_and_blocksum_reject_impossible_block_sizes():
    m = ((0, 2), (2, 0))
    cases = [
        (lambda: blowup("SE", ((0,),), 0), "block size must be an int >= 1, not 0"),
        (lambda: blowup("sideways", (), 2), "unknown direction 'sideways'"),
        (lambda: blowup("NE", ((1,),), True), "block size must be an int >= 1, not True"),
        (lambda: blocksum(m, -1), "block size must be an int >= 1, not -1"),
        (lambda: blocksum(m, 0), "block size must be an int >= 1, not 0"),
        (lambda: blocksum(m, True), "block size must be an int >= 1, not True"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


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
                        assert fine[r * i][r * j] == coarse[i][j]
        for n in range(0, 6):
            for v in enumerate_zero(VACILLATING, 2, n):
                coarse = growth_corners(v)
                fine = growth_corners(iota_v_to_o(v))
                for i in range(n + 1):
                    for j in range(i + 1):
                        assert fine[2 * i][2 * j] == coarse[i][j]


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
    """'Equal or adds one box', and the row of that box, agree with the step
    classification on all small pairs."""
    import itertools

    from crystalchords.growth import _check_adjacent
    from oracles import step_classify

    shapes = [
        tuple(sorted(c, reverse=True))
        for k in range(5)
        for c in itertools.combinations_with_replacement((1, 2, 3), k)
    ]
    for p, q in itertools.product(shapes, repeat=2):
        kind, row = step_classify(p, q)
        try:
            got = _check_adjacent(p, q, "cell")
        except ValueError as exc:
            assert str(exc) == f"cell: {p} -> {q} must be equal or add one box"
            got = None
        expected = {"equal": 0, "add_box": row}.get(kind)
        assert got == expected, (p, q)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def test_carry_rules_match_the_row_by_row_definition():
    """Burge and RSK rules against whole-corner strip tests plus the padded carry,
    and the 0/1 rules against Fomin's case analysis F1-F6/B1-B6: same results,
    same exception type and message, on every cell of a 3x3 box."""
    from oracles import backward_carry, fomin_backward, fomin_forward, forward_carry

    box = box_partitions(3, 3)
    assert len(box) == 20
    definitions = (
        ("burge", functools.partial(forward_carry, burge=True), functools.partial(backward_carry, burge=True)),
        ("rsk", functools.partial(forward_carry, burge=False), functools.partial(backward_carry, burge=False)),
        ("zero_one", fomin_forward, fomin_backward),
    )
    for rule, forward, backward in definitions:
        solved = raised = 0
        for p, q, s in itertools.product(box, repeat=3):
            for m in range(4):
                want = _outcome(forward, p, q, s, m)
                assert _outcome(cell_forward, rule, p, q, s, m) == want, (rule, p, q, s, m)
            want = _outcome(backward, p, q, s)
            assert _outcome(cell_backward, rule, p, q, s) == want, (rule, p, q, s)
            if isinstance(want[0], type):
                raised += 1
            else:
                solved += 1
        assert solved and raised, rule


def test_zero_one_union_and_meet_match_their_definition():
    from crystalchords.growth import _meet
    from oracles import intersect_parts

    box = box_partitions(3, 3)
    for p in box:
        for q in box:
            assert _meet(p, q) == intersect_parts(p, q)


def test_box_moves_match_their_definition():
    """Removing one box on canonical tuples, against padding and trimming."""
    from crystalchords.growth import _remove_box

    for p in box_partitions(4, 3):
        for row in range(1, 6):
            q = list(pad(p, max(len(p), row)))
            q[row - 1] -= 1
            want = trim(tuple(q)) if row <= len(p) and is_partition(q) else None
            try:
                got = _remove_box(p, row)
            except ValueError as exc:
                assert str(exc) == f"cannot remove a box from row {row} of {p}"
                got = None
            assert got == want, (p, row)


def test_backward_carry_reports_strips_before_gamma():
    """On partitions a corner that passes the strip tests always yields a valid
    gamma, so the 'no valid SW corner' check cannot fire through cell_backward.
    On positive parts that need not decrease it can (Burge), and the rules must
    still raise the strip error first wherever the definition does."""
    from crystalchords.growth import _RULES
    from oracles import backward_carry

    seqs = [t for k in range(4) for t in itertools.product((1, 2), repeat=k)]
    gamma_errors = 0
    for rule, burge in (("burge", True), ("rsk", False)):
        backward = _RULES[rule][1]
        for p, q, s in itertools.product(seqs, repeat=3):
            want = _outcome(backward_carry, p, q, s, burge)
            assert _outcome(backward, p, q, s) == want, (rule, p, q, s)
            gamma_errors += isinstance(want[0], type) and want[1].startswith("no valid")
    assert gamma_errors


# ----------------------------------------------------- memoised tables


@pytest.mark.parametrize(
    "family, ranks, lengths",
    [
        (OSCILLATING, range(1, 4), range(0, 9, 2)),
        (OSCILLATING, (4,), (8,)),
        (FAN, range(1, 4), range(0, 7, 2)),
        (VACILLATING, range(1, 4), range(8)),
    ],
    ids=["osc", "osc-r4-n8", "fan", "vac"],
)
def test_growth_corners_match_the_cell_by_cell_sweep(family, ranks, lengths):
    from oracles import growth_sweep_by_cells

    count = 0
    for r in ranks:
        for n in lengths:
            for t in enumerate_zero(family, r, n):
                corners, fill = growth_sweep_by_cells(t)
                assert growth_corners(t) == _rows_of(corners, n), t
                rows = [[0] * n for _ in range(n)]
                for (i, j), m in fill.items():
                    rows[i - 1][j - 1] = rows[j - 1][i - 1] = m
                assert growth_matrix(family, t) == tuple(map(tuple, rows)), t
                count += 1
    assert count > 50


def test_growth_table_entries_equal_the_raw_rules():
    """After sweeps in both directions, every stored entry of every edge is what
    a fresh call of the raw rule returns on its cell, and leads to the interned
    edge that the rule's output makes."""
    from crystalchords.growth import _FAMILY_RULE, _RULES, _edges

    for family, r, n in ((OSCILLATING, 3, 8), (FAN, 3, 6), (VACILLATING, 2, 6)):
        rule = _FAMILY_RULE[family]
        for t in enumerate_zero(family, r, n):
            growth_inverse(rule, lower_triangle_rows(growth_matrix(family, t)), family)
    for name, (raw_forward, raw_backward) in _RULES.items():
        forward, backward = _edges(name, True), _edges(name, False)
        assert any(forward.values()) and any(backward.values()), name
        for (top, bottom), edge in forward.items():
            assert edge.label == (top, bottom), name
            for key, (nxt, beta) in edge.items():
                delta, m = key
                assert type(m) is int, (name, key)
                # the edge is (NW, SW) = (alpha, gamma)
                assert raw_forward(bottom, delta, top, m) == beta, (name, top, bottom, key)
                assert nxt is forward.get((beta, delta)), (name, top, bottom, key)
        for (top, bottom), edge in backward.items():
            assert edge.label == (top, bottom), name
            for alpha, (nxt, gamma, m) in edge.items():
                # the edge is (NE, SE) = (beta, delta)
                assert raw_backward(top, bottom, alpha) == (gamma, m), (name, top, bottom, alpha)
                assert nxt is backward.get((alpha, gamma)), (name, top, bottom, alpha)


def test_growth_and_promotion_share_the_state_class_never_a_table():
    """Both routes intern their states as crystals._State rows, each in tables
    of its own, filled by its own rule; so do the pairs that walk two rows as
    one, each pair table holding states of its own route and direction only."""
    from crystalchords import growth
    from crystalchords.crystals import _State
    from crystalchords.growth import _FAMILY_RULE, _RULES, _edge_pairs, _edges, _forward_pairs
    from crystalchords.promotion import CHORD_MAPS, _local_rule, promote

    for family, r, n in ((OSCILLATING, 2, 6), (FAN, 2, 6), (VACILLATING, 2, 5)):
        for t in enumerate_zero(family, r, n):
            m = growth_matrix(family, t)
            growth_inverse(_FAMILY_RULE[family], lower_triangle_rows(m), family)
            promote(t)
            for tag, source in CHORD_MAPS.items():
                if source == family:
                    chord_matrix(tag, t)
    edges = [e for name in _RULES for fwd in (True, False) for e in _edges(name, fwd).values()]
    rules = [_local_rule(family, 2) for family in (OSCILLATING, FAN)]
    states = [s for rule in rules for s in rule.states.values()]
    assert edges and states
    assert all(type(x) is _State for x in edges + states)
    assert not {id(e) for e in edges} & {id(s) for s in states}
    assert {e.fill.__module__ for e in edges} == {"crystalchords.growth"}
    for rule in rules:
        assert all(s.fill.__self__ is rule for s in rule.states.values())
    pair_tables = [_edge_pairs(name) for name in _RULES] + [rule.pairs for rule in rules]
    pair_tables += [_forward_pairs(name) for name in _RULES]
    assert len({id(table) for table in pair_tables}) == len(pair_tables)
    growth_pairs = [p for name in _RULES for p in _edge_pairs(name).values()]
    growth_pairs += [p for name in _RULES for p in _forward_pairs(name).values()]
    rule_pairs = [p for rule in rules for p in rule.pairs.values()]
    assert growth_pairs and rule_pairs
    assert all(type(x) is _State for x in growth_pairs + rule_pairs)
    assert not {id(p) for p in growth_pairs} & {id(p) for p in rule_pairs}
    assert not {id(p) for p in growth_pairs + rule_pairs} & {id(x) for x in edges + states}
    backward = {name: {id(e) for e in _edges(name, False).values()} for name in _RULES}
    forward = {name: {id(e) for e in _edges(name, True).values()} for name in _RULES}
    for name in _RULES:
        assert all(id(x) in backward[name] for p in _edge_pairs(name).values() for x in p.label)
        assert all(id(x) in forward[name] for p in _forward_pairs(name).values() for x in p.label)
    for rule in rules:
        own = {id(s) for s in rule.states.values()}
        assert all(id(x) in own for p in rule.pairs.values() for x in p.label)
    assert not [
        name
        for name, x in vars(growth).items()
        if getattr(x, "__module__", None) == "crystalchords.promotion"
    ]


# ----------------------------------------------------- paired rows


def _run_both_routes(scales):
    from crystalchords.promotion import CHORD_MAPS, promote

    for family, rmax, nmax in scales:
        for r, n in itertools.product(range(1, rmax + 1), range(nmax + 1)):
            for t in enumerate_zero(family, r, n):
                growth_matrix(family, t)
                growth_corners(t)
                promote(t)
                for tag, source in CHORD_MAPS.items():
                    if source == family:
                        chord_matrix(tag, t)


def test_every_stored_pair_entry_is_two_base_lookups():
    """Each pair entry (pair (s, t), a) -> (next, c, f, g) is s[a] = (s2, b, f)
    followed by t[b] = (t2, c, g), with next the pair interned as (s2, t2);
    each growth pair seed is two seeds and one cell of the second row."""
    from crystalchords.growth import _FAMILY_RULE, _RULES, _edge_pairs, _pair_seeds, _seeds
    from crystalchords.promotion import _local_rule

    _run_both_routes(((OSCILLATING, 3, 8), (FAN, 3, 6), (VACILLATING, 3, 7)))
    tables = [_edge_pairs(name) for name in _RULES]
    tables += [_local_rule(family, r).pairs for family in (OSCILLATING, FAN) for r in (1, 2, 3)]
    counts = []
    for pairs in tables:
        count = 0
        for (s, t), pair in pairs.items():
            assert pair.label == (s, t)
            for a, (nxt, c, f, g) in pair.items():
                s2, b, f2 = s[a]
                t2, c2, g2 = t[b]
                assert (c, f, g) == (c2, f2, g2), (s.label, t.label, a)
                assert nxt is pairs.get((s2, t2)), (s.label, t.label, a)
                count += 1
        counts.append(count)
    assert all(counts), counts
    for family in (OSCILLATING, FAN, VACILLATING):
        seeds, pairs = _pair_seeds(family), _edge_pairs(_FAMILY_RULE[family])
        assert seeds
        for (p, q, r), (pair, head, m) in seeds.items():
            s, _, sub = _seeds(family)[p, q]
            e, hypotenuse, sub2 = _seeds(family)[q, r]
            e, gamma, m2 = e[sub]
            assert pair is pairs.get((s, e)) and head == (hypotenuse, sub2, gamma) and m == m2


def test_a_rejected_cell_met_through_a_pair_raises_every_time_and_is_never_stored():
    """Whether the first row's cell or the second row's is rejected, the pair
    raises the base rule's message every time, and neither the pair table nor
    the base table stores anything."""
    from crystalchords.growth import _edge_pairs, _edges
    from crystalchords.promotion import _LocalRule

    fan = _LocalRule(FAN, 2)
    edges = _edges("zero_one", False)
    fan_message = "fan step (1,) -> (1,) must change every part by one"
    edge_message = "zero_one cell: () -> (2,) must be equal or add one box"
    # (base states, pair table, first row, second row, letter, message); in the
    # second case of each route the first row's cell passes, and its output is
    # the letter that the second row rejects
    cases = [
        (fan.states, fan.pairs, fan.states[(1,)], fan.zero, (-1, -1), fan_message),
        (fan.states, fan.pairs, fan.states[(1, 1)], fan.states[(1,)], (-1, -1), fan_message),
        (edges, _edge_pairs("zero_one"), edges[(2,), ()], edges[(), ()], (), edge_message),
        (edges, _edge_pairs("zero_one"), edges[(), ()], edges[(2,), ()], (), edge_message),
    ]
    for first, (states, pairs, s, t, a, message) in zip((True, False) * 2, cases):
        pair = pairs[s, t]
        before = len(states), len(pairs)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                pair[a]
            assert str(info.value) == message
            assert a not in pair
            if first:
                assert a not in s
            else:
                assert s[a][1] not in t
            assert (len(states), len(pairs)) == before


@pytest.mark.parametrize("family", [OSCILLATING, FAN, VACILLATING])
def test_paired_walks_match_the_oracles_at_every_deep_scale(family):
    """chord_matrix, growth_matrix, growth_corners and vacillating promote,
    each on its paired walk, against the cell-by-cell oracles: at n = 0, 1, 2
    up to r = 4, and at every --deep scale of verify, which holds every odd
    vacillating length up to 7."""
    from oracles import chord_matrix as chord_oracle
    from oracles import growth_sweep_by_cells, promote_vacillating

    from crystalchords.cli import VERIFY_RANGES
    from crystalchords.promotion import CHORD_MAPS, promote

    _, (rmax, nmax) = VERIFY_RANGES[family]
    scales = {(r, n) for r in range(1, 5) for n in range(3)}
    scales |= {(r, n) for r in range(1, rmax + 1) for n in range(nmax + 1)}
    tags = [tag for tag, source in CHORD_MAPS.items() if source == family]
    count = 0
    for r, n in sorted(scales):
        for t in enumerate_zero(family, r, n):
            corners, fill = growth_sweep_by_cells(t)
            assert growth_corners(t) == _rows_of(corners, n), t
            rows = [[0] * n for _ in range(n)]
            for (i, j), m in fill.items():
                rows[i - 1][j - 1] = rows[j - 1][i - 1] = m
            assert growth_matrix(family, t) == tuple(map(tuple, rows)), t
            for tag in tags:
                assert chord_matrix(tag, t) == chord_oracle(tag, t), (tag, t)
            if family == VACILLATING:
                assert promote(t) == promote_vacillating(t), t
            count += 1
    # the --deep instances of verify, and the two tableaux of rank 4 at n = 0, 2
    assert count == {OSCILLATING: 1795, FAN: 492, VACILLATING: 120}[family] + 2


def test_rejected_growth_cell_raises_every_time_and_is_never_stored():
    from crystalchords.growth import _edges

    # (rule, forward?, edge (top, bottom), key, message); a forward edge is
    # (alpha, gamma) keyed by (delta, m), a backward edge (beta, delta) keyed by alpha
    cases = [
        ("zero_one", True, ((), ()), ((1,), 1), "a 1 requires equal gamma, delta, alpha"),
        ("zero_one", True, ((), ()), ((), 2), "zero_one filling must be 0 or 1"),
        (
            "zero_one",
            False,
            ((2,), ()),
            (),
            "zero_one cell: () -> (2,) must be equal or add one box",
        ),
        ("burge", False, ((2,), ()), (), "burge cell needs vertical strips under beta"),
        ("burge", True, ((), ()), ((2,), 0), "burge cell needs vertical strips over gamma"),
        ("rsk", False, ((1, 1), ()), (), "rsk cell needs horizontal strips under beta"),
        ("rsk", True, ((), ()), ((1, 1), 0), "rsk cell needs horizontal strips over gamma"),
    ]
    for rule, forward, corners, key, message in cases:
        edges = _edges(rule, forward)
        edge = edges[corners]
        before = len(edges)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                edge[key]
            assert str(info.value) == message
            assert key not in edge
            assert len(edges) == before
    # the same cell met inside a forward sweep, twice
    for _ in range(2):
        with pytest.raises(InvalidOutput) as info:
            growth_inverse("zero_one", [[1], [1, 0]], OSCILLATING)
        assert str(info.value) == "a 1 requires equal gamma, delta, alpha"
        assert ((1,), 1) not in _edges("zero_one", True)[(), ()]


@pytest.mark.parametrize(
    "triangle, message",
    [
        ([[1], [1, 0]], "a 1 requires equal gamma, delta, alpha"),
        ([[0], [0, 2]], "zero_one filling must be 0 or 1"),
        ([[0], [0, 0]], "oscillating step () -> () must add or remove one box"),
    ],
)
def test_growth_inverse_reports_rejected_cells_as_invalid_output(triangle, message):
    """A well-formed triangle outside the image is InvalidOutput, whether a local
    rule rejects a cell or the hypotenuse is not a tableau; same message."""
    with pytest.raises(InvalidOutput) as info:
        growth_inverse("zero_one", triangle, OSCILLATING)
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, ValueError)


def test_growth_inverse_rejects_a_vacillating_hypotenuse_that_is_not_doubled():
    # the RSK cell with filling 1 under empty corners grows the label (1,)
    for _ in range(2):
        with pytest.raises(InvalidOutput) as info:
            growth_inverse("rsk", [[1]], VACILLATING)
        assert str(info.value) == "hypotenuse label (1,) is not doubled"
    assert growth_inverse("rsk", [[2]], VACILLATING).steps == ((), (1,), ())


# ----------------------------------------------------- paired forward sweep


def test_every_forward_pair_entry_is_two_forward_edge_lookups():
    """Each forward pair entry (pair (s, t), (SE, m, m2)) -> (next, beta2) is
    s[SE, m] = (s2, beta) followed by t[beta, m2] = (t2, beta2), with next the
    pair interned as (s2, t2), and s and t are forward edges of its rule set."""
    from crystalchords.growth import _FAMILY_RULE, _edges, _forward_pairs

    for family, rmax, nmax in ((OSCILLATING, 3, 8), (FAN, 3, 6), (VACILLATING, 3, 7)):
        rule = _FAMILY_RULE[family]
        for r, n in itertools.product(range(1, rmax + 1), range(nmax + 1)):
            for t in enumerate_zero(family, r, n):
                tri = lower_triangle_rows(growth_matrix(family, t))
                assert growth_inverse(rule, tri, family).steps == t.steps
        edges = {id(e) for e in _edges(rule, True).values()}
        pairs = _forward_pairs(rule)
        count = 0
        for (s, t), pair in pairs.items():
            assert pair.label == (s, t) and id(s) in edges and id(t) in edges
            for (delta, m, m2), (nxt, beta2) in pair.items():
                s2, beta = s[delta, m]
                t2, c = t[beta, m2]
                assert c == beta2, (rule, s.label, t.label, delta, m, m2)
                assert nxt is pairs.get((s2, t2)), (rule, s.label, t.label, delta, m, m2)
                count += 1
        assert count > 10, rule


def test_a_rejected_cell_in_a_forward_pair_raises_every_time_and_is_never_stored():
    """Whether row i's cell or row i - 1's is rejected, the pair raises the rule's
    message every time, and neither the pair table nor the edges store anything;
    growth_inverse names the first rejected cell in row order."""
    from crystalchords.growth import _edges, _forward_pairs

    edges, pairs = _edges("zero_one", True), _forward_pairs("zero_one")
    start = edges[(), ()]
    pair = pairs[start, start]
    message = "zero_one filling must be 0 or 1"
    # row i's cell of the second key passes and is stored: it writes (1,), which row i - 1 rejects
    nxt, beta = start[(), 1]
    for key, first_row in ((((), 2, 0), True), (((), 1, 2), False)):
        before = len(edges), len(pairs)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                pair[key]
            assert str(info.value) == message
            assert key not in pair
            if first_row:
                assert ((), 2) not in start
            else:
                assert (beta, 2) not in start and (nxt, start) not in pairs
            assert (len(edges), len(pairs)) == before
    # the same second-row cell inside growth_inverse: rows 3 and 2 are one pair
    for _ in range(2):
        with pytest.raises(InvalidOutput) as info:
            growth_inverse("zero_one", [[2], [0, 0]], OSCILLATING)
        assert str(info.value) == message
        assert ((), 0, 2) not in pair
    # row 3 rejects cell (3, 1); row 4, walked in the same pair, rejects cell (4, 3)
    # later: row 4 comes first, as in a sweep one row at a time
    with pytest.raises(InvalidOutput) as info:
        growth_inverse("zero_one", [[0], [2, 0], [0, 1, 1]], OSCILLATING)
    assert str(info.value) == "a 1 requires equal gamma, delta, alpha"


@pytest.mark.parametrize(
    "family, r, n",
    [
        (OSCILLATING, 3, 8),
        (OSCILLATING, 2, 10),
        (FAN, 3, 6),
        (FAN, 2, 8),
        (VACILLATING, 2, 6),
        (VACILLATING, 2, 7),
        (VACILLATING, 1, 3),
        (VACILLATING, 3, 2),
    ],
)
def test_forward_sweep_matches_the_cell_by_cell_sweep_at_both_row_parities(family, r, n):
    """n - 1 triangle rows: odd counts leave row 2 over, even ones pair every row.
    The paired sweep round trips every tableau and gives the cell-by-cell
    hypotenuse, or its message, on each tableau's triangle and on copies with
    one cell changed, most of them outside the image."""
    from oracles import forward_hypotenuse_by_cells

    from crystalchords.growth import _FAMILY_RULE, _forward_sweep

    rule = _FAMILY_RULE[family]
    triangles = []
    for t in enumerate_zero(family, r, n):
        tri = lower_triangle_rows(growth_matrix(family, t))
        assert growth_inverse(rule, tri, family).steps == t.steps, t
        assert _forward_sweep(rule, tri) == forward_hypotenuse_by_cells(rule, tri), t
        triangles.append(tri)
    assert triangles
    rng = random.Random(n)
    compared = 0
    for _ in range(300):
        tri = [row[:] for row in rng.choice(triangles)]
        if tri:
            row = rng.choice(tri)
            row[rng.randrange(len(row))] = rng.choice((0, 1, 2))
        try:
            want = forward_hypotenuse_by_cells(rule, tri)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                _forward_sweep(rule, tri)
            assert str(info.value) == str(exc), tri
            continue
        assert _forward_sweep(rule, tri) == want, tri
        compared += 1
    assert compared


@pytest.mark.parametrize("label", [(1, 2), (1, 0)])
def test_a_forward_rule_that_writes_no_partition_is_invalid_output(monkeypatch, label):
    """The NE corner of each stored forward entry passes validate_tableau's
    partition test: a rule returning a label that is not a canonical partition
    raises InvalidOutput with validate_tableau's message, and nothing is stored."""
    from functools import cache

    from crystalchords import growth
    from crystalchords.crystals import TableauSeq, validate_tableau

    with pytest.raises(ValueError) as want:
        validate_tableau(TableauSeq._trusted(OSCILLATING, 2, ((), label, ())))
    rule = "zero_one"
    monkeypatch.setitem(growth._RULES, rule, (lambda *cell: label, growth._RULES[rule][1]))
    # fresh tables for the patched rule; the originals come back with the patch undone
    monkeypatch.setattr(growth, "_edges", cache(growth._edges.__wrapped__))
    monkeypatch.setattr(growth, "_forward_pairs", cache(growth._forward_pairs.__wrapped__))
    for triangle in ([[0]], [[0], [0, 0]]):
        for _ in range(2):
            with pytest.raises(InvalidOutput) as info:
                growth_inverse(rule, triangle, OSCILLATING)
            assert str(info.value) == str(want.value)
        edges, pairs = growth._edges(rule, True), growth._forward_pairs(rule)
        assert [e.label for e in edges.values()] == [((), ())]
        assert not any(edges.values()) and not any(pairs.values())


def _triangles(n):
    """Every triangle of a length-n tableau with entries 0-2."""
    size = (n - 1) * n // 2 if n > 1 else 0
    for cells in itertools.product(range(3), repeat=size):
        yield [list(cells[i * (i - 1) // 2 : i * (i + 1) // 2]) for i in range(1, max(n, 1))]


def test_growth_inverse_outcomes_on_every_small_triangle_are_unchanged():
    """The value, or the exception type and message, of growth_inverse on every
    triangle with entries 0-2 and n <= 5 (59,810 per family), hashed; the
    digests were recorded from the sweep that walked one row per lookup and
    built its hypotenuse through the TableauSeq constructor."""
    import hashlib

    from crystalchords.growth import _FAMILY_RULE

    digests = {
        OSCILLATING: "80d5995b973f32cbb50a38376e8526afeb1dccb0d56cfa8e9b4b4a88b91c6c40",
        FAN: "a41d84d585c23de2018f77ff92dd8f86333e5b223d3319eccc4ba41e3bdf75c8",
        VACILLATING: "82db99368e05dd247e62b27be5342221f559bb93816135697bc0752e96b8f8ae",
    }
    for family, rule in _FAMILY_RULE.items():
        h = hashlib.sha256()
        count = 0
        for n in range(6):
            for tri in _triangles(n):
                try:
                    outcome = repr(growth_inverse(rule, tri, family).steps)
                except Exception as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                h.update(f"{tri}:{outcome}\n".encode())
                count += 1
        assert count == 59_810
        assert h.hexdigest() == digests[family], family
