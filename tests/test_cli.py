import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pasep
from pasep import verify
from pasep.cli import build_parser, run
from pasep.verify import GOLDEN

ROOT = Path(__file__).resolve().parents[1]


def test_zn_closed(capsys):
    assert run(["zn", "--n", "1", "--method", "closed"]) == 0
    assert capsys.readouterr().out.strip() == "y*b + a"


# The bench's correctness gate: the SHA-256 of `zn --n N` stdout, read only.
BENCH_REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


@pytest.mark.parametrize("method", ["closed", "hatted", "normal"])
@pytest.mark.parametrize("n", sorted(BENCH_REFERENCE["zn_sha256"]))
def test_zn_matches_bench_reference(capsys, method, n):
    assert run(["zn", "--n", n, "--method", method]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BENCH_REFERENCE["zn_sha256"][n]


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


# Z(N) at a point with a negative and a zero coordinate, by every route:
# (N, point) -> the printed value
EVAL_PINS = {
    (5, "a=-2/3,b=5/7,y=0,q=-1/3"): "-32/243",
    (5, "a=0,b=-3,y=3/2,q=2"): "22131/32",
    (12, "a=-2/3,b=5/7,y=0,q=-1/3"): "4096/531441",
    (12, "a=0,b=-3,y=3/2,q=2"): "-291496186366223643/4096",
}


@pytest.mark.parametrize("n, point", sorted(EVAL_PINS))
def test_zn_eval_is_pinned_on_every_route(capsys, n, point):
    methods = verify.METHODS if n <= 9 else (*verify.FAST_METHODS, "paths")
    for method in methods:
        assert run(["zn", "--n", str(n), "--method", method, "--eval", point]) == 0
        assert capsys.readouterr().out == EVAL_PINS[n, point] + "\n", method


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
        ["enumerate", "--object", "laguerre", "--n", "2", "--format", "jsonl"],
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


# SHA-256 of `pasep enumerate --object X --n 4`: the records carry the
# statistics tuples' fields in declaration order.
ENUMERATE_N4_SHA256 = {
    "permutation": "1ac2df73eb5da6615cb4bd4722a6ee2cf9432bdd2563ee7ac62b34414f02a12e",
    "tableau": "b1770817d83fc10867e9464f3e044bd10917f0eca01b553f3b2a90fc0266b5b9",
}


@pytest.mark.parametrize("obj", sorted(ENUMERATE_N4_SHA256))
def test_enumerate_n4_output_is_pinned(capsys, obj):
    assert run(["enumerate", "--object", obj, "--n", "4"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_N4_SHA256[obj]


# SHA-256 of `pasep special --what X --n 7`: pins every line of each table.
SPECIAL_N7_SHA256 = {
    "q-eulerian": "868e0f46c14aae84273d33d84ea4b7a706159a3b5ec4c1cc8c051928aed3f4d1",
    "q-stirling": "8f8ec615d7e41416a19b9131e65e2a6edaabe05832a38c1d8b1e8d6cf8be54ad",
    "fine": "53634dcd73163dbcad88f2911fa688e70f3890a3ac13415e36edc32866d5372e",
    "tangent-secant": "0015bc03ce6c28601a6e6757078df9f8d19e33cf71053d86535125b28f710344",
}


@pytest.mark.parametrize("what", sorted(SPECIAL_N7_SHA256))
def test_special_output_is_pinned(capsys, what):
    assert run(["special", "--what", what, "--n", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SPECIAL_N7_SHA256[what]


def test_special_fine(capsys):
    assert run(["special", "--what", "fine", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "y^5 + 13*y^4 + 29*y^3 + 13*y^2 + y"


def test_special_q_stirling(capsys):
    assert run(["special", "--what", "q-stirling", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "q^2 + 3*q + 3" in out


def test_special_q_stirling_at_n_0_is_a_usage_error(capsys):
    assert run(["special", "--what", "q-stirling", "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "q-stirling" in captured.err


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


# SHA-256 of the stdout of `pasep verify --suite all` (710 lines, 709 checks):
# pins the check names, their order and their count.
VERIFY_ALL_SHA256 = "c368b9426edd41f2153f93609323e42ab5325842ea93c56d75b5a4f5cf1c484a"


def test_verify_all_output_is_pinned(capsys):
    assert run(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 710 and out.endswith("suite all: 709 checks, 0 failures\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_verify_over_empty_ranges_prints_no_check(capsys):
    # a check is printed only when it has a case: at --max-n -3 only the
    # fixed list of printed Fine polynomials is left
    assert run(["verify", "--suite", "all", "--max-n", "-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"ok    [fine] printed F_{n}" for n in range(1, 7)] + [
        "suite all: 6 checks, 0 failures"
    ]
    # m = 0 has neither a q-binomial lemma nor a bicolor path with a Dyck pair
    assert run(["verify", "--suite", "all", "--max-n", "0"]) == 0
    out = capsys.readouterr().out
    assert "q-binomial lemmas" not in out and "bicolor" not in out
    assert out.endswith("suite all: 63 checks, 0 failures\n")


def test_verify_symmetry(capsys):
    assert run(["verify", "--suite", "symmetry", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def _choices(command: str, dest: str) -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return list(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


def test_choices_follow_the_route_and_suite_tables():
    assert _choices("zn", "method") == sorted(pasep.METHODS)
    assert _choices("verify", "suite") == sorted(verify.SUITES)


COLD_START = """
import json, sys
import pasep.cli
from contextlib import redirect_stdout
from io import StringIO
WATCHED = ("pasep.verify", "pasep.bijections", "dataclasses")
loaded = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(StringIO()):
        assert pasep.cli.run(argv) == 0, argv
    loaded.append([m for m in WATCHED if m in sys.modules])
print(json.dumps(loaded))
"""


def test_zn_jobs_load_neither_verify_nor_bijections():
    fast = ["closed", "matrix", "normal", "hatted", "paths"]
    jobs = [["zn", "--n", "3", "--method", m] for m in fast]
    jobs.append(["verify", "--suite", "symmetry", "--max-n", "1"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(jobs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded[:-1] == [[]] * len(fast)
    assert loaded[-1] == ["pasep.verify", "pasep.bijections"]


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
