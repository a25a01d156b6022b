"""Command line front end.

Subcommands:
  zn         compute the partition function by a chosen method
  verify     run a cross-validation suite, exit 0 iff every check passed
  enumerate  stream combinatorial objects as JSONL with their statistics
  special    print specialization tables (q-Eulerian, q-Stirling, Fine,
             tangent-secant)

Exit codes: 0 success / verify passed, 1 verify failed, 2 usage error,
3 desk-scale cap exceeded (override with --force).  All polynomial output
goes through the canonical string format; no floating point anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import METHODS, ansatz, formulas, paths, perms, tableaux, zn
from .polyring import canonical_string, eval_rational

CAP_DEFAULT = 9
# the keys of verify.SUITES, sorted; `verify` itself loads only for a verify job
SUITE_NAMES = ("all", "bijections", "cross-methods", "identities", "moments", "specials", "symmetry")
SLOW_METHODS = {"perm-wex", "perm-asc", "tableaux", "histories"}
EXIT_USAGE = 2
EXIT_CAP = 3


def non_negative_int(text: str) -> int:
    """argparse type of --n; its ValueError makes argparse exit 2."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _parse_point(text: str) -> dict[str, Fraction]:
    point = dict.fromkeys("abyq", Fraction(1))
    given = set()
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        name = name.strip()
        try:
            number = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            number = None
        if name not in point or name in given or number is None:
            raise ValueError(f"bad assignment {piece!r} in --eval {text!r}")
        given.add(name)
        point[name] = number
    return point


def _over_cap(args, what: str) -> bool:
    """True, after printing the error, when args.n exceeds the desk-scale
    cap and --force is not given."""
    if args.n <= CAP_DEFAULT or args.force:
        return False
    print(f"error: {what} is capped at n <= {CAP_DEFAULT} (use --force)", file=sys.stderr)
    return True


def _cmd_zn(args) -> int:
    if args.method in SLOW_METHODS and _over_cap(args, f"method {args.method}"):
        return EXIT_CAP
    point = None
    if args.eval is not None:
        try:
            point = _parse_point(args.eval)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    z = zn(args.n, args.method)
    if point is not None:
        print(eval_rational(z, **point))
    else:
        print(canonical_string(z))
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    reports = verify.run_suite(args.suite, args.max_n)
    failures = 0
    for rep in reports:
        failed = dict(rep.failures)
        for name in rep.checks:
            bad = failed.get(name)
            if bad is None:
                print(f"ok    [{rep.suite}] {name}")
            else:
                print(f"FAIL  [{rep.suite}] {name}: {bad}")
        failures += len(rep.failures)
    checks = sum(len(rep.checks) for rep in reports)
    print(f"suite {args.suite}: {checks} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _weighted(steps, **extra) -> dict:
    """JSON record of a family path: its steps, then extra, then its weight."""
    weight = canonical_string(paths.path_weight(steps))
    return {**paths.path_json(steps), **extra, "weight": weight}


# `enumerate --object` choices: each maps n to the JSON records of its objects.
OBJECTS = {
    "permutation": lambda n: (
        {"perm": perms.perm_string(s), "stats": perms.stats(s)._asdict()}
        for s in perms.enumerate_permutations(n)
    ),
    "tableau": lambda n: (
        {**t.to_dict(), "stats": tableaux.tableau_stats(t)._asdict()}
        for t in tableaux.enumerate_tableaux(n)
    ),
    "laguerre": lambda n: (
        {**paths.history_json(h), "weight": canonical_string(paths.history_weight(h))}
        for h in paths.enumerate_laguerre(n)
    ),
    "pathset-P": lambda n: map(_weighted, paths.enumerate_PN(n)),
    "pathset-R": lambda n: (
        _weighted(p, q_levels=k) for k in range(n + 1) for p in paths.enumerate_R_star(n, k)
    ),
    "pathset-B": lambda n: map(_weighted, paths.enumerate_B_star(n)),
}


def _cmd_enumerate(args) -> int:
    if _over_cap(args, f"object {args.object}"):
        return EXIT_CAP
    for record in OBJECTS[args.object](args.n):
        sys.stdout.write(json.dumps(record) + "\n")
    return 0


# `special --what` choices: each maps n to the lines of its table.
SPECIALS = {
    "q-eulerian": lambda n: (
        f"k={k}\t{canonical_string(formulas.q_eulerian(n, k))}" for k in range(n + 1)
    ),
    "q-stirling": lambda n: (
        f"k={k}\t{canonical_string(formulas.q_stirling2(n, k))}" for k in range(1, n + 1)
    ),
    "fine": lambda n: [canonical_string(formulas.fine_from_Z(n))],
    "tangent-secant": lambda n: [canonical_string(formulas.q_tangent_secant(n))],
}


def _cmd_special(args) -> int:
    # S2[n, k] is tabled for 1 <= k <= n, so n = 0 would print an empty table
    if args.what == "q-stirling" and args.n == 0:
        print("error: special --what q-stirling needs --n >= 1", file=sys.stderr)
        return EXIT_USAGE
    for line in SPECIALS[args.what](args.n):
        print(line)
    return 0


def _cmd_state(args) -> int:
    w = ansatz.state_weight(args.word)
    print(canonical_string(w))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasep",
        description="Exact partition function combinatorics for the open exclusion process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_zn = sub.add_parser("zn", help="compute the partition function")
    p_zn.add_argument("--n", type=non_negative_int, required=True)
    p_zn.add_argument("--method", choices=sorted(METHODS), default="closed")
    p_zn.add_argument(
        "--eval", metavar="a=..,b=..,y=..,q=..", default=None,
        help="print Z(N) at this rational point; a variable not assigned is 1",
    )
    p_zn.add_argument("--force", action="store_true")
    p_zn.set_defaults(func=_cmd_zn)

    p_verify = sub.add_parser("verify", help="run a cross-validation suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream objects as JSONL")
    p_enum.add_argument("--object", choices=OBJECTS, required=True)
    p_enum.add_argument("--n", type=non_negative_int, required=True)
    p_enum.add_argument("--force", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_special = sub.add_parser("special", help="specialization tables")
    p_special.add_argument("--what", choices=SPECIALS, required=True)
    p_special.add_argument("--n", type=non_negative_int, required=True)
    p_special.set_defaults(func=_cmd_special)

    p_state = sub.add_parser("state", help="stationary weight of an occupation word")
    p_state.add_argument("--word", required=True, help="word over {D, E}, D = occupied")
    p_state.set_defaults(func=_cmd_state)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
