import json

import pytest

from crystalchords.cli import main

FAN8_COMPACT = "000,111,222,311,422,331,222,111,000"
VAC9_COMPACT = "000,100,200,210,211,111,111,110,100,000"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "fan", "--r", "2", "--n", "4", "--count-only")
    assert code == 0 and out.strip() == "3"


def test_enumerate_lists_tableaux(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "osc", "--r", "1", "--n", "2")
    assert code == 0
    assert out.strip().splitlines() == ["0,1,0"]


def test_enumerate_count_84(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "fan", "--r", "2", "--n", "8", "--count-only")
    assert code == 0 and out.strip() == "84"


def test_enumerate_json_deterministic(capsys):
    args = ("enumerate", "--family", "vac", "--r", "2", "--n", "5", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    first = json.loads(out1.splitlines()[0])
    assert set(first) == {"family", "r", "steps"}


def test_promote_compact(capsys):
    code, out, _ = run(capsys, "promote", "--family", "fan", "--tableau", FAN8_COMPACT)
    assert code == 0
    assert out.strip() == "000,111,200,311,220,111,000,111,000"


def test_promote_orbit(capsys):
    code, out, _ = run(capsys, "promote", "--family", "fan", "--tableau", FAN8_COMPACT, "--orbit")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 9
    assert lines[0] == lines[8] == FAN8_COMPACT


def test_chord_json(capsys):
    code, out, _ = run(
        capsys, "chord", "--family", "vac", "--tableau", VAC9_COMPACT, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["map"] == "M_VO"
    assert payload["matrix"][0] == [0, 0, 0, 0, 0, 1, 1, 0, 0]


def test_chord_ascii_edges(capsys):
    code, out, _ = run(capsys, "chord", "--family", "fan", "--tableau", FAN8_COMPACT)
    assert code == 0
    assert "1-8 x3" in out


def test_growth_round_trip(capsys):
    code, out, _ = run(
        capsys, "growth", "--family", "vac", "--tableau", VAC9_COMPACT, "--round-trip"
    )
    assert code == 0 and "True" in out


VAC9_MATRIX_JSON = (
    "[[0,0,0,0,0,1,1,0,0],[0,0,0,0,2,0,0,0,0],[0,0,0,0,0,0,1,1,0],[0,0,0,0,0,0,0,1,1],"
    "[0,2,0,0,0,0,0,0,0],[1,0,0,0,0,0,0,0,1],[1,0,1,0,0,0,0,0,0],[0,0,1,1,0,0,0,0,0],"
    "[0,0,0,1,0,1,0,0,0]]"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("chord",), '{"map":"M_VO","matrix":' + VAC9_MATRIX_JSON + "}"),
        (("chord", "--map", "M_VF"), '{"map":"M_VF","matrix":' + VAC9_MATRIX_JSON + "}"),
        (("growth",), '{"matrix":' + VAC9_MATRIX_JSON + "}"),
        (
            ("growth", "--triangle"),
            '{"triangle":[[0],[0,0],[0,0,0],[0,2,0,0],[1,0,0,0,0],[1,0,1,0,0,0],'
            "[0,0,1,1,0,0,0],[0,0,0,1,0,1,0,0]]}",
        ),
        (
            ("growth", "--corners"),
            '{"corners":[[[]],[[],[2]],[[],[2],[4]],[[],[2],[4],[4,2]],'
            "[[],[2],[4],[4,2],[4,2,2]],[[],[2],[2],[2,2],[2,2,2],[2,2,2]],"
            "[[],[1],[1],[2,1],[2,2,1],[2,2,1],[2,2,2]],[[],[],[],[1],[2,1],[2,1],[2,2],[2,2]],"
            "[[],[],[],[],[1],[1],[2],[2],[2]],[[],[],[],[],[],[],[],[],[],[]]]}",
        ),
    ],
    ids=["chord-M_VO", "chord-M_VF", "growth", "growth-triangle", "growth-corners"],
)
def test_json_output_on_vac9_is_pinned(capsys, argv, expected):
    command, *options = argv
    code, out, err = run(
        capsys, command, "--family", "vac", "--tableau", VAC9_COMPACT, "--format", "json", *options
    )
    assert (code, out, err) == (0, expected + "\n", "")


def test_ascii_corners_bracket_a_part_above_nine(capsys):
    tableau = "00,10,20,30,40,50,51,41,31,21,11,10,00"
    code, out, _ = run(capsys, "growth", "--family", "vac", "--tableau", tableau, "--corners")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 13
    assert lines[5] == "00 20 40 60 80 [10]"
    assert lines[6] == "00 20 40 60 80 [10] [10,2]"
    assert lines[7] == "00 20 40 60 80 80 82 82"


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "fans-main", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["suite"] == "fans-main"


def test_verify_rule_inversion(capsys):
    code, out, _ = run(capsys, "verify", "rule-inversion", "--cases", "600")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("osc-main", "--r", "-1"), "--r must be at least 1"),
        (("osc-main", "--r", "0"), "--r must be at least 1"),
        (("osc-main", "--n", "-2"), "--n must be at least 0"),
        (("osc-main", "--family", "fan"), "suite 'osc-main' checks no fan tableaux"),
        (("vac-main", "--family", "osc"), "suite 'vac-main' checks no oscillating tableaux"),
        (("rule-inversion", "--cases", "0"), "--cases must be at least 1"),
        (("rule-inversion", "--cases", "-5"), "--cases must be at least 1"),
        (("osc-main", "--jobs", "0"), "--jobs must be at least 1"),
    ],
)
def test_verify_rejects_options_that_check_nothing(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_rule_inversion_checks_exactly_the_cases_asked_for():
    from crystalchords.cli import rule_inversion_cells

    assert [len(list(rule_inversion_cells(k, 1))) for k in (1, 2, 3)] == [1, 2, 3]
    rules = [cell[0] for cell in rule_inversion_cells(10, 1)]
    assert rules == ["zero_one", "burge", "rsk"] * 3 + ["zero_one"]


def test_promote_input_rejects_a_fractional_rank_and_parts(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "oscillating", "r": 1.9, "steps": [[], [1.5], [0.4]]}))
    code, out, err = run(capsys, "promote", "--input", str(path))
    assert (code, out, err) == (2, "", "error: part 1.5 of (1.5,) is not an int\n")


@pytest.mark.parametrize(
    "value, message",
    [
        ({"family": "oscillating", "r": 1, "steps": [[], 5, []]}, "cannot parse a partition from 5"),
        ({"family": "oscillating", "r": 1}, "tableau JSON needs a list of steps"),
    ],
)
def test_promote_input_rejects_malformed_json(tmp_path, capsys, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(value))
    code, out, err = run(capsys, "promote", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["promote", "chord", "growth"])
def test_a_zero_rank_is_not_taken_as_unset(capsys, command):
    """--r 0 is a rank, and an invalid one; it is not inferred from the compact form."""
    code, out, err = run(capsys, command, "--family", "osc", "--r", "0", "--tableau", "00,10,00")
    assert (code, out, err) == (2, "", "error: rank must be positive\n")


OSC_JSON = json.dumps({"family": "oscillating", "r": 2, "steps": [[], [1], []]})


@pytest.mark.parametrize("command", ["promote", "chord", "growth"])
@pytest.mark.parametrize(
    "options, message",
    [
        (("--family", "fan"), "--family fan contradicts the tableau's family oscillating"),
        (("--r", "3"), "--r 3 contradicts the tableau's rank 2"),
        (("--r", "0"), "--r 0 contradicts the tableau's rank 2"),
        (("--family", "osc", "--r", "1"), "--r 1 contradicts the tableau's rank 2"),
    ],
    ids=["family", "rank", "zero-rank", "agreeing-family-wrong-rank"],
)
def test_a_json_tableau_contradicting_the_options_is_a_usage_error(
    tmp_path, capsys, command, options, message
):
    path = tmp_path / "osc.json"
    path.write_text(OSC_JSON)
    for source in (("--tableau", OSC_JSON), ("--input", str(path))):
        code, out, err = run(capsys, command, *options, *source)
        assert (code, out, err) == (2, "", f"error: {message}\n"), source


def test_a_json_tableau_agreeing_with_the_options_or_without_them_works(tmp_path, capsys):
    path = tmp_path / "osc.json"
    path.write_text(OSC_JSON)
    for source in (("--tableau", OSC_JSON), ("--input", str(path))):
        for options in ((), ("--family", "osc"), ("--r", "2"), ("--family", "oscillating", "--r", "2")):
            code, out, err = run(capsys, "promote", *options, *source)
            assert (code, out, err) == (0, "00,10,00\n", ""), (source, options)


def test_promote_rejects_a_negative_step_count(capsys):
    code, out, err = run(capsys, "promote", "--family", "osc", "--tableau", "00,10,00", "--steps", "-3")
    assert (code, out, err) == (2, "", "error: --steps must be at least 0\n")
    code, out, _ = run(capsys, "promote", "--family", "osc", "--tableau", "00,10,00", "--steps", "0")
    assert (code, out) == (0, "00,10,00\n")


def test_csp_exit_codes(capsys):
    code, out, _ = run(capsys, "csp", "--family", "fan", "--r", "2", "--n", "4", "--poly", "f")
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "csp", "--family", "vac", "--r", "2", "--n", "7", "--poly", "h")
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(
        capsys, "csp", "--family", "fan", "--r", "2", "--n", "4", "--poly", "g", "--conjecture"
    )
    assert code == 0 and json.loads(out)["holds"] is True


def test_csp_usage_errors(capsys):
    code, _, err = run(capsys, "csp", "--family", "osc", "--r", "1", "--n", "4", "--poly", "h")
    assert code == 2 and "vacillating" in err
    code, _, err = run(capsys, "csp", "--family", "fan", "--r", "1", "--n", "3", "--poly", "g")
    assert code == 2


@pytest.mark.parametrize("family, n, poly", [("fan", 4, "f"), ("vac", 7, "h")])
def test_csp_enumerates_its_set_once(capsys, monkeypatch, family, n, poly):
    from crystalchords import cli, crystals, sieving

    calls = []

    def enumerate_zero(*args):
        calls.append(args)
        return crystals.enumerate_zero(*args)

    monkeypatch.setattr(cli, "enumerate_zero", enumerate_zero)
    monkeypatch.setattr(sieving, "enumerate_zero", enumerate_zero)
    code, out, _ = run(capsys, "csp", "--family", family, "--r", "2", "--n", str(n), "--poly", poly)
    assert code == 0 and json.loads(out)["holds"] is True
    assert len(calls) == 1


def test_golden_all(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 15 and all(line.startswith("PASS") for line in lines)


def test_golden_single(capsys):
    code, out, _ = run(capsys, "golden", "--name", "fan8-chords")
    assert code == 0 and out.strip() == "PASS fan8-chords"
    code, _, err = run(capsys, "golden", "--name", "missing")
    assert code == 2


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--family", "fan"])
    assert exc.value.code == 2


def test_tableau_input_file(tmp_path, capsys):
    from crystalchords.crystals import tableau
    from crystalchords.serialize import tableau_to_json

    t = tableau("fan", 2, [(), (1, 1), ()])
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(tableau_to_json(t)))
    code, out, _ = run(capsys, "promote", "--input", str(path))
    assert code == 0 and out.strip() == "00,11,00"


def test_verify_reports_an_exception_as_a_counterexample(capsys, monkeypatch):
    from crystalchords import cli

    def check(t):
        if t.steps == ((), (1,), (1, 1), (1,), ()):
            raise ValueError("injected fault")
        return None

    monkeypatch.setitem(cli._SUITE_TABLE, "osc-main", (("oscillating",), check))
    code, out, _ = run(capsys, "verify", "osc-main", "--r", "2", "--n", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["counterexamples"] == [
        {"family": "oscillating", "r": 2, "tableau": "00,10,11,10,00", "reason": "exception: ValueError: injected fault"}
    ]


def _fails_at_length_two(t):
    # module level, so a --jobs 2 worker can unpickle it
    return "forced" if len(t) == 2 else None


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_counterexamples_of_several_scales_come_in_scale_order(capsys, monkeypatch, jobs):
    """Each counterexample names the family and rank of its own tableau."""
    from crystalchords import cli

    monkeypatch.setitem(cli._SUITE_TABLE, "rotation", (cli.FAMILIES, _fails_at_length_two))
    code, out, _ = run(capsys, "verify", "rotation", "--r", "2", "--n", "3", "--jobs", jobs)
    assert code == 1
    payload = json.loads(out)
    assert payload["instances"] == 13
    assert [(c["family"], c["r"], c["tableau"]) for c in payload["counterexamples"]] == [
        ("oscillating", 1, "0,1,0"),
        ("oscillating", 2, "00,10,00"),
        ("fan", 1, "0,1,0"),
        ("fan", 2, "00,11,00"),
        ("vacillating", 1, "0,1,0"),
        ("vacillating", 2, "00,10,00"),
    ]
    assert {c["reason"] for c in payload["counterexamples"]} == {"forced"}


def test_a_verify_run_opens_at_most_one_pool(capsys, monkeypatch):
    """All scales of a suite go through one pool, and its report is the one of --jobs 1."""
    import multiprocessing

    opened = []

    class CountingPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", CountingPool)
    for suite in ("osc-main", "rotation"):
        serial = run(capsys, "verify", suite, "--deep", "--jobs", "1")
        assert run(capsys, "verify", suite, "--deep", "--jobs", "2") == serial
        assert opened == [2]
        opened.clear()


def test_check_rotation_promotes_each_tableau_once(monkeypatch):
    from crystalchords import cli
    from crystalchords.crystals import enumerate_zero

    promoted = []
    promote = cli.promote
    monkeypatch.setattr(cli, "promote", lambda t: promoted.append(t) or promote(t))
    for family, r, n in [("oscillating", 2, 6), ("fan", 2, 6), ("vacillating", 2, 6)]:
        items = enumerate_zero(family, r, n)
        assert [cli._check_rotation(t) for t in items] == [None] * len(items)
        assert promoted == items
        promoted.clear()


def test_count_only_builds_no_tableau(capsys, monkeypatch):
    """--count-only prints the length of the listing on every --deep scale
    without building a single tableau."""
    from crystalchords import cli
    from crystalchords.crystals import TableauSeq, enumerate_zero

    args = cli.build_parser().parse_args(["verify", "rotation", "--deep"])
    expected = [(f, r, n, len(enumerate_zero(f, r, n))) for f, r, n in cli._scales("rotation", args)]

    def refuse(*args):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(TableauSeq, "_trusted", refuse)
    for family, r, n, count in expected:
        argv = ("enumerate", "--family", family, "--r", str(r), "--n", str(n), "--count-only")
        assert run(capsys, *argv) == (0, f"{count}\n", "")


def test_verify_jobs_two_prints_the_bytes_of_jobs_one(capsys):
    code1, out1, _ = run(capsys, "verify", "osc-main", "--jobs", "1")
    code2, out2, _ = run(capsys, "verify", "osc-main", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2 and json.loads(out1)["instances"] == 250


def test_verify_rule_inversion_reports_an_exception_as_a_counterexample(capsys, monkeypatch):
    from crystalchords import cli

    original = cli.cell_backward
    calls = []

    def cell_backward(*args):
        calls.append(args)
        if len(calls) == 5:
            raise ValueError("injected fault")
        return original(*args)

    monkeypatch.setattr(cli, "cell_backward", cell_backward)
    code, out, _ = run(capsys, "verify", "rule-inversion", "--cases", "30")
    assert code == 1
    (failure,) = json.loads(out)["counterexamples"]
    assert failure["reason"] == "exception: ValueError: injected fault"
    assert failure["rule"] == "burge"


@pytest.mark.parametrize("conjecture, code", [((), 1), (("--conjecture",), 0)])
def test_csp_reports_an_exception_in_the_sieve_check(capsys, monkeypatch, conjecture, code):
    from crystalchords import sieving

    def orbit_decomposition(elements, order, action):
        raise ValueError("injected fault")

    monkeypatch.setattr(sieving, "orbit_decomposition", orbit_decomposition)
    got, out, _ = run(capsys, "csp", "--family", "fan", "--r", "2", "--n", "4", "--poly", "f", *conjecture)
    assert got == code
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["reason"] == "exception: ValueError: injected fault"
    assert (payload["family"], payload["set_size"], payload["conjecture"]) == ("fan", 3, bool(conjecture))


def _reversed_matrix(m):
    # conjugation by i -> n-1-i: still symmetric with a zero diagonal, but it
    # breaks both G = M and the intertwining with rotation
    return tuple(row[::-1] for row in m[::-1])


@pytest.mark.parametrize(
    "tag, suite, family, reason",
    [
        ("M_O", "osc-main", "osc", "G_O != M_O"),
        ("M_F", "fans-main", "fan", "G_F != M_F"),
        ("M_VO", "vac-main", "vac", "G_V != M_VO"),
        ("M_VF", "vac-main", "vac", "G_V != M_VF"),
        ("M_O", "rotation", "osc", "M_O does not intertwine promotion with rotation"),
        ("M_F", "rotation", "fan", "M_F does not intertwine promotion with rotation"),
        ("M_VO", "rotation", "vac", "M_VO does not intertwine promotion with rotation"),
        ("M_VF", "rotation", "vac", "M_VF does not intertwine promotion with rotation"),
    ],
)
def test_verify_names_the_chord_map_that_fails(capsys, monkeypatch, tag, suite, family, reason):
    from crystalchords import cli

    original = cli.chord_matrix

    def chord_matrix(name, t):
        m = original(name, t)
        return _reversed_matrix(m) if name == tag else m

    monkeypatch.setattr(cli, "chord_matrix", chord_matrix)
    code, out, _ = run(capsys, "verify", suite, "--family", family, "--r", "2", "--n", "6")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["counterexamples"]
    assert {c["reason"] for c in payload["counterexamples"]} == {reason}


# the (max rank, max length) ranges of each suite, plain and --deep, in report order
VERIFY_SCALES = {
    "osc-main": {False: [("oscillating", 3, 8)], True: [("oscillating", 3, 10)]},
    "fans-main": {False: [("fan", 3, 6)], True: [("fan", 3, 8)]},
    "vac-main": {False: [("vacillating", 2, 6)], True: [("vacillating", 3, 7)]},
}
for _suite in ("rotation", "order", "blowup-lemmas"):
    VERIFY_SCALES[_suite] = {
        False: [("oscillating", 3, 8), ("fan", 3, 6), ("vacillating", 2, 6)],
        True: [("oscillating", 3, 10), ("fan", 3, 8), ("vacillating", 3, 7)],
    }


@pytest.mark.parametrize("suite", sorted(VERIFY_SCALES))
@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize(
    "options",
    [
        (),
        ("--family", "fan"),
        ("--family", "vac"),
        ("--r", "2"),
        ("--n", "5"),
        ("--family", "osc", "--r", "1", "--n", "4"),
        ("--n", "0"),
    ],
)
def test_verify_scales(suite, deep, options):
    from crystalchords import cli

    args = cli.build_parser().parse_args(["verify", suite, *options, *(["--deep"] if deep else [])])
    family = cli.FAMILY_ALIASES[args.family] if args.family else None
    expected = []
    for fam, rmax, nmax in VERIFY_SCALES[suite][deep]:
        if family not in (None, fam):
            continue
        rmax = min(rmax, args.r) if args.r is not None else rmax
        nmax = min(nmax, args.n) if args.n is not None else nmax
        expected += [(fam, r, n) for r in range(1, rmax + 1) for n in range(nmax + 1)]
    assert cli._scales(suite, args) == expected


def test_chord_maps_of_each_family_and_jobs_default():
    from crystalchords import cli

    assert cli.FAMILY_MAPS == {
        "oscillating": ("M_O",),
        "fan": ("M_F",),
        "vacillating": ("M_VO", "M_VF"),
    }
    assert cli.build_parser().parse_args(["verify", "osc-main"]).jobs == 1


def test_building_the_parser_leaves_multiprocessing_unimported():
    """Only --jobs above 1 imports multiprocessing, so a plain run never pays for it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import crystalchords

    src = str(Path(crystalchords.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import crystalchords.cli as cli\n"
        "cli.build_parser()\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_main_builds_its_parser_once_and_prints_the_same_bytes(capsys, monkeypatch):
    """In-process calls share one parser, print what a fresh interpreter
    prints, and leave no garbage in reference cycles behind."""
    import gc
    import os
    import subprocess
    import sys
    from pathlib import Path

    import crystalchords
    from crystalchords import cli

    built = []

    def counted():
        built.append(1)
        return build()

    build = cli.build_parser
    assert build() is not build()  # the public builder still returns a fresh parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    commands = [
        ["enumerate", "--family", "vac", "--r", "2", "--n", "5", "--format", "json"],
        ["verify", "fans-main", "--r", "2", "--n", "6"],
        ["csp", "--family", "fan", "--r", "2", "--n", "6", "--poly", "f"],
    ]
    src = str(Path(crystalchords.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    try:
        for argv in commands:
            fresh = subprocess.run(
                [sys.executable, "-m", "crystalchords.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            assert run(capsys, *argv) == (0, fresh, "")
            gc.collect()
            gc.disable()
            try:
                assert run(capsys, *argv) == (0, fresh, "")
                assert gc.collect() == 0
            finally:
                gc.enable()
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_main_finds_each_command_by_name_at_every_call(capsys, monkeypatch):
    """The shared parser holds no command function, so a command rebound after
    the first call (as a tracer does) is the one that runs."""
    from crystalchords import cli

    assert run(capsys, "enumerate", "--family", "fan", "--r", "2", "--n", "4", "--count-only")[:2] == (0, "3\n")
    monkeypatch.setitem(cli.COMMANDS, "enumerate", lambda args: print("rebound", args.n) or 0)
    assert run(capsys, "enumerate", "--family", "fan", "--r", "2", "--n", "4")[:2] == (0, "rebound 4\n")
