import pytest

from crystalchords.crystals import tableau
from crystalchords.serialize import (
    dump_json,
    parse_partition,
    parse_tableau,
    render_chords,
    render_partition,
    render_tableau,
    tableau_to_json,
)


def test_parse_partition_forms():
    assert parse_partition([3, 2]) == (3, 2)
    assert parse_partition("311") == (3, 1, 1)
    assert parse_partition("000") == ()
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("3,1")
    with pytest.raises(ValueError):
        parse_partition([1, 2])


def test_tableau_json_round_trip():
    t = tableau("fan", 3, [(), (1, 1, 1), (2, 2), (1, 1, 1), ()])
    assert parse_tableau(tableau_to_json(t)) == t
    assert parse_tableau("000,111,220,111,000", "fan", 3) == t
    assert render_tableau(t) == "000,111,220,111,000"


def test_render_partition_brackets_multi_digit_parts():
    assert render_partition((), 3) == "000"
    assert render_partition((9, 9), 2) == "99"
    assert render_partition((3, 1), 3) == "310"
    assert render_partition((10,), 2) == "[10]"
    assert render_partition((10, 2), 2) == "[10,2]"
    assert render_partition((12, 11, 3), 4) == "[12,11,3]"
    t = tableau("oscillating", 1, [(), *((k,) for k in range(1, 11)), *((k,) for k in range(9, -1, -1))])
    assert render_tableau(t).split(",")[9:12] == ["9", "[10]", "9"]


def test_matrix_and_chords():
    assert render_chords(((0, 2), (2, 0))) == "1-2 x2"
    assert render_chords(((0,),)) == "(no chords)"


def test_dump_json_stable():
    assert dump_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


@pytest.mark.parametrize(
    "value, message",
    [
        ({"family": "oscillating", "r": 1.9, "steps": [[], [1], []]}, "rank must be an int, not float"),
        ({"family": "oscillating", "r": True, "steps": [[], [1], []]}, "rank must be an int, not bool"),
        ({"family": "oscillating", "steps": [[], [1], []]}, "rank must be an int, not NoneType"),
        ({"family": "oscillating", "r": 1, "steps": [[], [1.5], [0.4]]}, "part 1.5 of (1.5,) is not an int"),
        ({"family": "fan", "r": 2, "steps": [[], [True, True], []]}, "part True of (True, True) is not an int"),
    ],
)
def test_parse_tableau_takes_int_ranks_and_parts_only(value, message):
    with pytest.raises(ValueError) as exc:
        parse_tableau(value)
    assert str(exc.value) == message
