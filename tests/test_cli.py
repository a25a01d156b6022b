import json

import pytest

from pasep.cli import run


def test_zn_closed(capsys):
    assert run(["zn", "--n", "1", "--method", "closed"]) == 0
    assert capsys.readouterr().out.strip() == "y*b + a"


def test_zn_paths_zero(capsys):
    assert run(["zn", "--n", "0", "--method", "paths"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_zn_tableaux_golden(capsys):
    assert run(["zn", "--n", "3", "--method", "tableaux"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("y^3*b^3 + y^2*q^2*a*b^2") and out.endswith("+ a^3")


def test_zn_eval(capsys):
    assert run(["zn", "--n", "2", "--method", "closed", "--eval", "a=1,b=1,y=1,q=1"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["zn", "--n", "1", "--method", "closed", "--eval", "a=1/2,b=1/3,y=1,q=0"]) == 0
    assert capsys.readouterr().out.strip() == "5/6"


def test_zn_cap_violation(capsys):
    assert run(["zn", "--n", "10", "--method", "tableaux"]) == 3
    assert "capped" in capsys.readouterr().err


def test_usage_error():
    for argv in (
        ["zn", "--n", "x"],
        ["zn", "--n", "-1"],
        ["enumerate", "--object", "laguerre", "--n", "-1"],
        ["special", "--what", "q-eulerian", "--n", "-2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("point", ["a=x", "a=1/0", "c=1"])
def test_zn_bad_eval_is_a_usage_error(capsys, point):
    assert run(["zn", "--n", "2", "--eval", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and point in captured.err


def test_enumerate_laguerre(capsys):
    assert run(["enumerate", "--object", "laguerre", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert all("steps" in r and "weight" in r for r in records)


@pytest.mark.parametrize(
    "obj", ["permutation", "tableau", "laguerre", "pathset-P", "pathset-R", "pathset-B"]
)
def test_enumerate_empty(capsys, obj):
    assert run(["enumerate", "--object", obj, "--n", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1


def test_enumerate_tableau_count(capsys):
    assert run(["enumerate", "--object", "tableau", "--n", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24


def test_special_fine(capsys):
    assert run(["special", "--what", "fine", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "y^5 + 13*y^4 + 29*y^3 + 13*y^2 + y"


def test_special_q_stirling(capsys):
    assert run(["special", "--what", "q-stirling", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "q^2 + 3*q + 3" in out


def test_special_tangent_secant(capsys):
    assert run(["special", "--what", "tangent-secant", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "q + 1"


def test_state_word(capsys):
    assert run(["state", "--word", "DE"]) == 0
    assert capsys.readouterr().out.strip() == "q*a*b + a + b"


def test_verify_identities(capsys):
    assert run(["verify", "--suite", "identities", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_symmetry(capsys):
    assert run(["verify", "--suite", "symmetry", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
