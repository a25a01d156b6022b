import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pasep.cli import run
from pasep.verify import GOLDEN

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["zn", "--n", "10", "--method", "tableaux"],
        ["enumerate", "--object", "laguerre", "--n", "10"],
    ],
    ids=["zn", "enumerate"],
)
def test_zn_cap_violation(capsys, argv):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "capped" in captured.err


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


@pytest.mark.parametrize("point", ["a=x", "a=1/0", "c=1", "a=1,a=2"])
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


# SHA-256 of `pasep enumerate --object X --n 6`: pins generation order and
# record bytes, so a faster generator cannot reorder or reformat silently.
ENUMERATE_N6_SHA256 = {
    "permutation": "b820c75de116ffd8ce6c81efc4290530545298ae80066e04ac8cb27d1617c491",
    "tableau": "d7ca2d8d98aff52e5cc7929362a1804f05f7d30ea1491e9128a3a61b0c49878b",
    "laguerre": "c5503c034c1fd3de8f79906d8c78037b3d87b10d66d594d387ddfed9f41ad8eb",
    "pathset-P": "6273ae9d7465c5cba510b29d761284b0f78419b381f1c8ed5462f75a55c49a93",
    "pathset-R": "54a55c34a75ace37f19ac17475424d512e11e2cd07f84ad659352b2be32c5755",
    "pathset-B": "5d99bff65d3f8f4c1b750b677cd9aaf034ac08f311511ea780abc9b36e2596f2",
}


@pytest.mark.parametrize("obj", sorted(ENUMERATE_N6_SHA256))
def test_enumerate_output_is_pinned(capsys, obj):
    assert run(["enumerate", "--object", obj, "--n", "6"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_N6_SHA256[obj]


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


def test_partition_tables_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "partition_tables.py"), "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1:5] == [f"  Z({n}) = {GOLDEN[n]}" for n in range(4)]
