"""Every function in the package runs from some command line entry point.

A fresh interpreter drives `pasep.cli.run` over a small job list under
`sys.setprofile` and reports every function it entered; the test then asks
for each `def` in `src/pasep` (methods and nested functions included) to
be among them.  The child is a new process so that `lru_cache`s warmed by
earlier tests cannot hide a call.  Code that only tests reach belongs in
the tests, or in ALLOWED with its reason.

The child also reports the hits of every `lru_cache` in the package, and
each must be read again at least once over the job list: a cache is kept
for a recursion, a hot table or a value that more than one caller asks
for.  A cache that no job re-reads is dropped, or listed in COLD_CACHES
with its reason.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pasep"

JOBS = [
    *(["zn", "--n", "3", "--method", m] for m in (
        "closed", "matrix", "normal", "hatted", "paths", "perm-wex", "perm-asc", "tableaux", "histories",
    )),
    ["zn", "--n", "3", "--eval", "a=1/2,b=2,y=3,q=1/3"],
    ["verify", "--suite", "all", "--max-n", "3"],
    ["state", "--word", "DED"],
    *(["enumerate", "--object", o, "--n", "2"] for o in (
        "permutation", "tableau", "laguerre", "pathset-P", "pathset-R", "pathset-B",
    )),
    *(["special", "--what", w, "--n", "3"] for w in ("q-eulerian", "q-stirling", "fine", "tangent-secant")),
]

ALLOWED = {
    "cli.main",  # the console script; it only wraps cli.run in sys.exit
    # definitions that tests compare the fast code against
    "paths.enumerate_dyck",
    "paths._dyck_options",  # the steps enumerate_dyck lists
    "paths.is_fine",
    "paths.peaks",
    "perms.enumerate_alternating",
    "perms.enumerate_alternating.rec",
    "perms.inverse",  # the per-step FZ and FV scans in the tests read it
    "polyring.parse_poly",  # documented inverse of the canonical format
    "polyring.MPoly.num_terms",  # read by the benchmark tracer
    "polyring.MPoly.deg",  # used by the y_reflect property test
    # Python protocols
    "polyring.MPoly.__rsub__",
    "polyring.MPoly.__repr__",
    # public inverse of the JSON that `enumerate --object tableau` prints,
    # and the one way to build a tableau from its 0/1 rows
    "tableaux.PermutationTableau.from_json",
    # that JSON as a string, from_json's inverse; the CLI spreads to_dict
    # into its record instead of parsing this string back
    "tableaux.PermutationTableau.to_json",
    # the namedtuple _make (and _replace, which calls it) checked as the
    # constructor is; no CLI job copies or rebuilds a tableau
    "tableaux.PermutationTableau._make",
    # the validating constructor; the package's one producer of tableaux,
    # enumerate_tableaux, makes the same checks as it extends each column
    "tableaux.PermutationTableau.__new__",
    # public pass/fail summary of a report; the CLI counts failures instead
    "verify.VerifyReport.ok",
}

# lru_caches allowed no hit over JOBS, each with its reason; none today
COLD_CACHES: dict[str, str] = {}

CHILD = """
import contextlib, io, json, os, sys
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(hook)
import pasep.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(pasep.cli.run(argv))
sys.setprofile(None)
package = os.path.dirname(pasep.__file__)
hits = {
    name.removeprefix("pasep.") + "." + attr: obj.cache_info().hits
    for name, module in list(sys.modules.items()) if name.startswith("pasep.")
    for attr, obj in vars(module).items()
    if hasattr(obj, "cache_info") and obj.__module__ == name
}
print(json.dumps({
    "package": package,
    "codes": codes,
    "hits": hits,
    "entered": sorted(
        (os.path.basename(c.co_filename), c.co_firstlineno)
        for c in entered if os.path.dirname(c.co_filename) == package
    ),
}))
"""


def _defs() -> dict[tuple[str, int], str]:
    """(file name, first line) -> dotted name of every def in the package;
    a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[file, first] = name
                walk(child, name, file)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", file)
            else:
                walk(child, prefix, file)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, path.name)
    return out


def _cached_defs() -> set[str]:
    """Dotted name of every module-level def decorated with lru_cache."""
    return {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)
    }


@functools.cache
def _child_report() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(JOBS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert Path(report["package"]) == PACKAGE
    assert report["codes"] == [0] * len(JOBS)
    return report


def test_every_def_runs_from_an_entry_point():
    report = _child_report()
    defs = _defs()
    never_run = set(defs.values()) - {defs.get(tuple(loc)) for loc in report["entered"]}
    # an entry that no longer names an unreached def leaves the list
    assert not ALLOWED - never_run, sorted(ALLOWED - never_run)
    assert not never_run - ALLOWED, sorted(never_run - ALLOWED)


def test_every_lru_cache_is_read_again():
    hits = _child_report()["hits"]
    # every cache in the source is seen, so the check below is not vacuous
    assert set(hits) == _cached_defs()
    cold = {name for name, n in hits.items() if not n}
    assert not set(COLD_CACHES) - cold, sorted(set(COLD_CACHES) - cold)
    assert not cold - set(COLD_CACHES), sorted(cold - set(COLD_CACHES))


def test_every_unbounded_cache_is_keyed_by_ints():
    # an unbounded cache whose arguments are all ints holds one entry per
    # size asked for; a bounded one (tableaux._fulls) is exempt
    unbounded = {"cache", "functools.cache", "lru_cache(maxsize=None)", "functools.lru_cache(maxsize=None)"}
    found, keyed_otherwise = [], []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                ast.unparse(d) in unbounded for d in node.decorator_list
            ):
                found.append(node.name)
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                if any(p.annotation is None or ast.unparse(p.annotation) != "int" for p in params):
                    keyed_otherwise.append(f"{path.stem}.{node.name}")
    assert found
    assert not keyed_otherwise, keyed_otherwise
