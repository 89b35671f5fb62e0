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

    monkeypatch.setitem(cli._SUITE_CHECK, "osc-main", check)
    code, out, _ = run(capsys, "verify", "osc-main", "--r", "2", "--n", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["counterexamples"] == [
        {"family": "oscillating", "r": 2, "tableau": "00,10,11,10,00", "reason": "exception: ValueError: injected fault"}
    ]


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
