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
from dataclasses import asdict
from fractions import Fraction

from . import ansatz, formulas, paths, perms, tableaux, verify
from .polyring import canonical_string, eval_rational

CAP_DEFAULT = 9
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
    point = {"a": Fraction(1), "b": Fraction(1), "y": Fraction(1), "q": Fraction(1)}
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        name = name.strip()
        try:
            number = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            number = None
        if name not in point or number is None:
            raise ValueError(f"bad assignment {piece!r} in --eval")
        point[name] = number
    return point


def _cmd_zn(args) -> int:
    if args.method in SLOW_METHODS and args.n > CAP_DEFAULT and not args.force:
        print(
            f"error: method {args.method} is capped at n <= {CAP_DEFAULT}"
            " (use --force to override)",
            file=sys.stderr,
        )
        return EXIT_CAP
    point = None
    if args.eval is not None:
        try:
            point = _parse_point(args.eval)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    z = verify.METHODS[args.method](args.n)
    if point is not None:
        print(eval_rational(z, **point))
    else:
        print(canonical_string(z))
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, args.max_n)
    failures = 0
    for rep in reports:
        for name in rep.checks:
            bad = dict(rep.failures).get(name)
            if bad is None:
                print(f"ok    [{rep.suite}] {name}")
            else:
                print(f"FAIL  [{rep.suite}] {name}: {bad}")
        failures += len(rep.failures)
    checks = sum(len(rep.checks) for rep in reports)
    print(f"suite {args.suite}: {checks} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_enumerate(args) -> int:
    if args.n > CAP_DEFAULT and not args.force:
        print(
            f"error: enumeration capped at n <= {CAP_DEFAULT} (use --force)",
            file=sys.stderr,
        )
        return EXIT_CAP
    out = sys.stdout
    if args.object == "permutation":
        for sigma in perms.enumerate_permutations(args.n):
            record = {"perm": perms.perm_string(sigma), "stats": asdict(perms.stats(sigma))}
            out.write(json.dumps(record) + "\n")
    elif args.object == "tableau":
        for t in tableaux.enumerate_tableaux(args.n):
            record = json.loads(t.to_json())
            record["stats"] = asdict(tableaux.tableau_stats(t))
            out.write(json.dumps(record) + "\n")
    elif args.object == "laguerre":
        for steps in paths.enumerate_laguerre(args.n):
            record = paths.history_json(steps)
            record["weight"] = canonical_string(paths.history_weight(steps))
            out.write(json.dumps(record) + "\n")
    elif args.object == "pathset-P":
        for steps in paths.enumerate_PN(args.n):
            record = paths.path_json(steps)
            record["weight"] = canonical_string(paths.path_weight(steps))
            out.write(json.dumps(record) + "\n")
    elif args.object == "pathset-R":
        for n in range(args.n + 1):
            for steps in paths.enumerate_R_star(args.n, n):
                record = paths.path_json(steps)
                record["q_levels"] = n
                record["weight"] = canonical_string(paths.path_weight(steps))
                out.write(json.dumps(record) + "\n")
    elif args.object == "pathset-B":
        for steps in paths.enumerate_B_star(args.n):
            record = paths.path_json(steps)
            record["weight"] = canonical_string(paths.path_weight(steps))
            out.write(json.dumps(record) + "\n")
    else:
        raise AssertionError(args.object)
    return 0


def _cmd_special(args) -> int:
    if args.what == "q-eulerian":
        for k in range(args.n + 1):
            print(f"k={k}\t{canonical_string(formulas.q_eulerian(args.n, k))}")
    elif args.what == "q-stirling":
        for k in range(1, args.n + 1):
            print(f"k={k}\t{canonical_string(formulas.q_stirling2(args.n, k))}")
    elif args.what == "fine":
        print(canonical_string(formulas.fine_from_Z(args.n)))
    elif args.what == "tangent-secant":
        print(canonical_string(formulas.q_tangent_secant(args.n)))
    else:
        raise AssertionError(args.what)
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
    p_zn.add_argument("--method", choices=sorted(verify.METHODS), default="closed")
    p_zn.add_argument("--eval", metavar="a=..,b=..,y=..,q=..", default=None)
    p_zn.add_argument("--force", action="store_true")
    p_zn.set_defaults(func=_cmd_zn)

    p_verify = sub.add_parser("verify", help="run a cross-validation suite")
    p_verify.add_argument("--suite", choices=sorted(verify.SUITES), default="all")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream objects as JSONL")
    p_enum.add_argument(
        "--object",
        choices=["permutation", "tableau", "laguerre", "pathset-P", "pathset-R", "pathset-B"],
        required=True,
    )
    p_enum.add_argument("--n", type=non_negative_int, required=True)
    p_enum.add_argument("--format", choices=["jsonl"], default="jsonl")
    p_enum.add_argument("--force", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_special = sub.add_parser("special", help="specialization tables")
    p_special.add_argument(
        "--what", choices=["q-eulerian", "q-stirling", "fine", "tangent-secant"], required=True
    )
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
