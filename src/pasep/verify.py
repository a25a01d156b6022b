"""Cross-validation suites.

Every check compares independently computed exact objects, case by case, and
records each case under the check's name in a VerifyReport.  The CLI
`verify` subcommand and the acceptance test module both run these functions;
the default bounds are the desk-scale budgets the suites are pinned at, and a
caller-supplied max_n only ever lowers them.

bijection_suite reads each history's weight law and step types from one
history_scan, and checks the step-type lemmas as equalities of int masks: bit
k of a type mask marks the k-th step, which stands for the position k under
Foata-Zeilberger and for the value k under Francon-Viennot, and _extrema
returns the matching masks of sigma's extrema and fixed points by position
or value.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable

from . import METHODS, ansatz, bijections, formulas, paths, perms
from .paths import history_scan
from .polyring import (
    MPoly,
    ONE,
    Q,
    Y,
    ZERO,
    canonical_string,
    eval_rational,
    monomial,
    substitute,
    y_reflect,
)
from .qtools import binomial, q_binomial, touchard_M

GOLDEN = {
    0: "1",
    1: "y*b + a",
    2: "y^2*b^2 + y*q*a*b + y*a*b + y*a + y*b + a^2",
    3: "y^3*b^3 + y^2*q^2*a*b^2 + y^2*q*a*b^2 + 2*y^2*q*a*b + y^2*q*b^2 + y^2*a*b^2"
    " + y^2*a*b + y^2*a + 2*y^2*b^2 + y^2*b + y*q^2*a^2*b + y*q*a^2*b + y*q*a^2"
    " + 2*y*q*a*b + y*a^2*b + 2*y*a^2 + y*a*b + y*a + y*b + a^3",
}

FAST_METHODS = ("closed", "matrix", "normal", "hatted")
MOMENT_POINTS = 20  # rational points per N in moment_suite, drawn with MOMENT_SEED
MOMENT_SEED = 20110401


class VerifyReport:
    """The named checks of one suite, each the aggregate of its cases.

    Every check(name, ok, detail) call is one case of the check `name`.  The
    check enters `checks` at its first case and fails at its first failing
    case, with that case's detail; later cases of a failed check change
    nothing.  A name that never gets a case is never recorded, so a check
    over an empty range does not pass: it does not appear.
    """

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self._passing: dict[str, bool] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if name not in self._passing:
            self.checks.append(name)
        elif not self._passing[name]:
            return
        self._passing[name] = ok
        if not ok:
            self.failures.append((name, detail))

    def check_eq(self, name: str, got: MPoly, want: MPoly) -> None:
        ok = got == want
        detail = "" if ok else f"got {canonical_string(got)} want {canonical_string(want)}"
        self.check(name, ok, detail)

    @property
    def ok(self) -> bool:
        return not self.failures


def _cap(default: int, max_n: int | None) -> int:
    return default if max_n is None else min(default, max_n)


def golden_values(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("golden-values")
    for N in range(_cap(3, max_n) + 1):
        want = GOLDEN[N]
        for name, fn in METHODS.items():
            got = canonical_string(fn(N))
            rep.check(f"golden Z{N} via {name}", got == want, f"got {got} want {want}")
    return rep


def cross_methods(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("cross-methods")
    slow_max = _cap(7, max_n)
    for N in range(_cap(10, max_n) + 1):
        ref = formulas.zn_closed(N)
        names = METHODS if N <= slow_max else FAST_METHODS
        for name in names:
            if name != "closed":
                rep.check_eq(f"Z{N} {name} == closed", METHODS[name](N), ref)
    return rep


def symmetry_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("symmetry")
    for N in range(_cap(8, max_n) + 1):
        z = formulas.zn_closed(N)
        rep.check_eq(f"y-reflect fixes Z{N}", y_reflect(z, N), z)
    return rep


def specialization_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("specializations")
    for N in range(_cap(10, max_n) + 1):
        z11 = substitute(formulas.zn_y1(N), "q", ONE)
        rep.check_eq(f"product formula N={N}", formulas.zn_product_y1q1(N), z11)
    for N in range(_cap(8, max_n) + 1):
        rep.check_eq(f"a=b=1 triple sum N={N}", formulas.zn_cas1(N), formulas.zn_ab1(N))
    for N in range(_cap(8, max_n) + 1):
        for n in range(N + 1):
            rep.check_eq(
                f"R({N},{n}) at y=1",
                substitute(formulas.R_formula(N, n), "y", ONE),
                formulas.R_y1(N, n),
            )
    return rep


def _extrema(sigma: perms.Perm) -> tuple[int, int, int, int, int]:
    """Masks of the left-to-right maxima of sigma by position, of its
    right-to-left minima by position and by value, of its right-to-left
    maxima by value, and of its fixed points: bit p for the position p, from
    1, bit v for the value v."""
    lr_max = rl_min = rl_min_values = rl_max_values = fixed = 0
    top = 0
    for p, v in enumerate(sigma, start=1):
        if v > top:
            top = v
            lr_max |= 1 << p
        if v == p:
            fixed |= 1 << p
    low, high = len(sigma) + 1, 0
    for p in range(len(sigma), 0, -1):
        v = sigma[p - 1]
        if v < low:
            low = v
            rl_min |= 1 << p
            rl_min_values |= 1 << v
        if v > high:
            high = v
            rl_max_values |= 1 << v
    return lr_max, rl_min, rl_min_values, rl_max_values, fixed


_DIRECTION = {paths.UP: 0, paths.LEVEL: 1, paths.DOWN: 2}


def _history_code(history: tuple[paths.LaguerreStep, ...], n: int) -> int:
    """One exact int per history: after a leading 1, the base-6(n+1) digits
    (direction * 2 + delta) * (n + 1) + j, one per step.  Distinct histories
    get distinct codes whenever every delta is 0 or 1 and 0 <= j <= n, as in
    every Laguerre history of at most n steps."""
    base = 6 * (n + 1)
    code = 1
    for d, delta, j in history:
        code = code * base + (_DIRECTION[d] * 2 + delta) * (n + 1) + j
    return code


def _inverts(inverse: Callable[[tuple], perms.Perm], history: tuple, sigma: perms.Perm) -> bool:
    """inverse(history) == sigma, and False when inverse rejects history."""
    try:
        return inverse(history) == sigma
    except ValueError:
        return False


def bijection_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("bijections")
    cap = _cap(7, max_n)
    u_prime_forms = []  # per n, the Counter of (wex - 1, cr, u', v) over S_n
    for n in range(cap + 1):
        u_prime_form: Counter = Counter()
        u_prime_forms.append(u_prime_form)
        fz_inv, fv_inv = f"FZ round trip and validity, n={n}", f"FV round trip and validity, n={n}"
        fz_law, fv_law = f"FZ weight law y^wex q^cr, n={n}", f"FV weight law y^asc q^31-2, n={n}"
        fz_inj, fv_inj = f"FZ injective on S_{n}", f"FV injective on S_{n}"
        lem1 = f"type-1 steps are the left-to-right maxima, n={n}"
        lem2 = f"type-2 steps are the non-fixed right-to-left minima, n={n}"
        lem3 = f"tilde involution preserves (u->u', wex, v, cr), n={n}"
        lem4 = f"FV type-1 steps are the right-to-left minima, n={n}"
        lem5 = f"FV type-2-after-type-1 are the right-to-left maxima, n={n}"
        seen_fz: set[int] = set()  # _history_codes: ints, far smaller than the histories
        seen_fv: set[int] = set()
        pending = {}  # sigma -> ((u, wex, v, cr), (u', wex, v, cr)) until tilde(sigma) comes
        for sigma in perms.enumerate_permutations(n):
            st = perms.stats(sigma)
            u_prime_form[st.wex - 1, st.cr, st.u_prime, st.v] += 1
            hz = bijections.foata_zeilberger(sigma)
            hv = bijections.francon_viennot(sigma)
            rep.check(fz_inv, _inverts(bijections.foata_zeilberger_inverse, hz, sigma))
            rep.check(fv_inv, _inverts(bijections.francon_viennot_inverse, hv, sigma))
            ey, eq, z1, z2 = history_scan(hz)
            rep.check(fz_law, (ey, eq) == (st.wex, st.cr))
            ey, eq, v1, v2 = history_scan(hv)
            rep.check(fv_law, (ey, eq) == (st.asc, st.p31_2))
            code_z, code_v = _history_code(hz, n), _history_code(hv, n)
            rep.check(fz_inj, code_z not in seen_fz)
            rep.check(fv_inj, code_v not in seen_fv)
            seen_fz.add(code_z)
            seen_fv.add(code_v)
            # a | b == c | b says that the masks a and c agree off the bits of b
            lr_max, rl_min, rl_min_values, rl_max_values, fixed = _extrema(sigma)
            rep.check(lem1, z1 == lr_max)
            rep.check(lem2, z2 | fixed == rl_min | fixed)
            tl = perms.tilde(sigma)
            keys = (st.u, st.wex, st.v, st.cr), (st.u_prime, st.wex, st.v, st.cr)
            partner = keys if tl == sigma else pending.pop(tl, None)
            if partner is None:
                pending[sigma] = keys
            rep.check(lem3, perms.tilde(tl) == sigma and partner in (None, keys[::-1]))
            rep.check(lem4, v1 == rl_min_values)
            late2 = v2 >> v1.bit_length() << v1.bit_length()
            last = 1 << sigma[-1] if n else 0  # the value at position n
            rep.check(lem5, late2 | last == rl_max_values | last)
        rep.check(lem3, not pending)
    for N in range(cap):
        rep.check_eq(
            f"history route equals the u'-form permutation sum, N={N}",
            MPoly(u_prime_forms[N + 1]),
            paths.zn_histories(N),
        )
    for m in range(1, _cap(8, max_n) + 1):  # the lemma needs m >= 1; () maps to ((), ())
        for steps in bijections.enumerate_bicolor(m):
            d1, d2 = bijections.bicolor_to_dyck_pair(steps)
            nbeta, nalpha = bijections.bicolor_mark_counts(steps)
            rep.check(
                "bicolor-to-Dyck-pair mark preservation",
                len(d1) + len(d2) == 2 * m - 2
                and paths.returns(d1) + 1 == nbeta
                and paths.returns(d2) == nalpha,
            )
    return rep


def decomposition_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("decomposition")
    pair_max = _cap(4, max_n)
    for N in range(pair_max + 1):
        member = f"combine lands in family P, N={N}"
        weight = f"combine preserves weights, N={N}"
        round_trip = f"decompose inverts combine, N={N}"
        for n in range(N + 1):
            b_list = list(paths.enumerate_B_star(n))
            for h1 in paths.enumerate_R_star(N, n):
                w1 = paths.path_weight(h1)
                for h2 in b_list:
                    p = bijections.combine_paths(h1, h2)
                    rep.check(member, paths.is_valid_family_path(p, "P"))
                    rep.check(weight, paths.path_weight(p) == w1 * paths.path_weight(h2))
                    rep.check(round_trip, bijections.decompose_path(p) == (h1, h2))
        inverse = f"combine inverts decompose, N={N}"
        for p in paths.enumerate_PN(N):
            rep.check(inverse, bijections.combine_paths(*bijections.decompose_path(p)) == p)
    for N in range(_cap(6, max_n) + 1):
        total = sum(
            paths.count_family(N, "R*", q_levels=n) * paths.count_family(n, "B*")
            for n in range(N + 1)
        )
        rep.check(
            f"|P_{N}| equals the paired cardinality sum",
            paths.count_family(N, "P") == total,
            f"{paths.count_family(N, 'P')} != {total}",
        )
    return rep


def path_sum_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("path-sums")
    cap = _cap(6, max_n)
    r_sums = {(N, n): paths.sum_R(N, n) for N in range(cap + 1) for n in range(N + 1)}
    b_sums = [paths.sum_B(n) for n in range(cap + 1)]
    for (N, n), got in r_sums.items():
        rep.check_eq(f"sum R({N},{n})", got, formulas.R_formula(N, n))
    for n, got in enumerate(b_sums):
        rep.check_eq(f"sum B({n})", got, formulas.B_formula(n))
    refine_cap = _cap(5, max_n)
    for N in range(refine_cap + 1):
        for n in range(N + 1):
            s = ZERO
            for h in paths.enumerate_R_star(N, n):
                s = s + paths.path_weight(h)
            rep.check_eq(f"starred refinement of R({N},{n})", s, r_sums[N, n])
    for n in range(refine_cap + 1):
        s = ZERO
        for h in paths.enumerate_B_star(n):
            s = s + paths.path_weight(h)
        rep.check_eq(f"starred refinement of B({n})", s, b_sums[n])
    return rep


def moment_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("moments")
    closed = [formulas.asc_mom_closed(N) for N in range(_cap(8, max_n) + 1)]
    for N, mom in enumerate(closed):
        rep.check_eq(
            f"ballot moment formula vs J-fraction, N={N}",
            mom,
            paths.jfraction_moment(formulas.ASC_HALVED, N),
        )
        rep.check_eq(f"binomial transform of Z vs ballot formula, N={N}", formulas.mu_from_Z(N), mom)
    for N in range(_cap(6, max_n) + 1):
        rep.check_eq(
            f"q-Laguerre moment recurrence recovers (1-q)^N Z at y=1, N={N}",
            paths.jfraction_moment(formulas.SHIFTED_Z, N),
            (ONE - Q) ** N * formulas.zn_y1(N),
        )
    rng = random.Random(MOMENT_SEED)
    for N in range(_cap(6, max_n) + 1):
        agree = f"rational moment evaluation at {MOMENT_POINTS} points, N={N}"
        done = 0
        while done < MOMENT_POINTS:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            q = Fraction(rng.randint(-6, 6), rng.randint(2, 7))
            if a == 0 or q in (0, 1, -1):
                continue
            try:
                got = formulas.stanton_moment_eval(N, a, b, q)
            except formulas.SingularPoint:
                continue
            want = eval_rational(closed[N], a=a, b=b, y=1, q=q) / 2**N
            rep.check(agree, got == want)
            done += 1
    return rep


def tangent_secant_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("tangent-secant")
    cap = _cap(10, max_n)
    closed = [formulas.q_tangent_secant(n) for n in range(cap + 1)]
    for n in range(1, cap + 1):
        rep.check_eq(f"E_{n} closed vs alternating sum", closed[n], perms.alternating_E(n))
        if n % 2 == 0:
            cf = paths.jfraction_moment(formulas.QSECANT, n)
        else:
            cf = paths.jfraction_moment(formulas.QTANGENT, n - 1)
        rep.check_eq(f"E_{n} closed vs continued fraction", closed[n], cf)
    # tangent/secant numbers 1,1,1,2,5,16,61,272,1385; the sequence is
    # anchored at E_0 = 1 since |A_3| = 2 pins E_3(1) = 2
    expected = [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    for n in range(0, min(cap, 8) + 1):
        val = substitute(closed[n], "q", ONE).constant_value()
        rep.check(f"E_{n}(1) = {expected[n]}", val == expected[n], str(val))
    return rep


def stirling_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("q-stirling")
    cap = _cap(12, max_n)
    extract_cap = _cap(9, max_n)
    for n in range(1, cap + 1):
        for k in range(1, n + 1):
            ref = formulas.q_stirling2(n, k, "recurrence")
            for method in ("carl1", "carl2"):
                rep.check_eq(f"S2[{n},{k}] {method}", formulas.q_stirling2(n, k, method), ref)
            if n <= extract_cap:
                rep.check_eq(
                    f"S2[{n},{k}] from_Z", formulas.q_stirling2(n, k, "from_Z"), ref
                )
    return rep


def eulerian_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("q-eulerian")
    for N in range(_cap(8, max_n) + 1):
        eulerian = f"q=1 gives the Eulerian row, N={N}"
        binomial_row = f"q=-1 gives the binomial row, N={N}"
        narayana = f"q=0 gives the Narayana row, N={N}"
        row1 = 0
        row0 = 0
        for k in range(N + 1):
            e = formulas.q_eulerian(N, k)
            v1 = substitute(e, "q", ONE).constant_value()
            vm1 = substitute(e, "q", -ONE).constant_value()
            v0 = substitute(e, "q", ZERO).constant_value()
            row1 += v1
            row0 += v0
            rep.check(eulerian, v1 == formulas.eulerian_number(N + 1, k + 1))
            rep.check(binomial_row, vm1 == binomial(N, k))
            rep.check(narayana, v0 == formulas.narayana_number(N + 1, k + 1))
        rep.check(f"row sums: (N+1)! and Catalan, N={N}",
                  row1 == math.factorial(N + 1) and row0 == formulas.catalan_number(N + 1))
    return rep


def fine_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("fine")
    printed = {
        1: "0",
        2: "y",
        3: "y^2 + y",
        4: "y^3 + 4*y^2 + y",
        5: "y^4 + 8*y^3 + 8*y^2 + y",
        6: "y^5 + 13*y^4 + 29*y^3 + 13*y^2 + y",
    }
    for n, s in printed.items():
        got = canonical_string(formulas.fine_from_Z(n))
        rep.check(f"printed F_{n}", got == s, got)
    for N in range(_cap(10, max_n) + 1):
        rep.check_eq(f"F_{N} from Z vs Fine paths", formulas.fine_from_Z(N), paths.fine_poly_paths(N))
    for n in range(_cap(12, max_n) + 1):
        # fine polynomials carry no a or b, so y_reflect is the pure
        # coefficient reversal and palindromicity reads as a fixed point
        f = paths.fine_poly_paths(n)
        rep.check_eq(f"F_{n} palindromic", y_reflect(f, n), f)
    for N in range(_cap(7, max_n) + 1):
        z = substitute(formulas.zn_y1(N), "q", ZERO)
        rep.check_eq(f"Dyck pair formula at q=0, N={N}", paths.dyck_pair_sum_q0(N), z)
    return rep


def identity_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("identities")
    cap = _cap(10, max_n)
    name = f"prefix-count binomial identity, N<={cap}"
    for N in range(cap + 1):
        for n in range(N + 1):
            for i in range((N - n) // 2 + 2):
                rep.check(name, formulas.idbinl_check(N, n, i))
    name = f"M three-term recurrence, k<={cap}"
    for k in range(cap + 1):
        for n in range(1, k + 2):
            if (k - n + 1) % 2:
                continue
            l_hi = (k - n + 1) // 2
            l_lo = (k - n - 1) // 2
            lhs = touchard_M(l_hi, k) + Y * (ONE - monomial(1, eq=n + 1)) * touchard_M(l_lo, k)
            rep.check(name, lhs == touchard_M(l_hi, k + 1))
    qcap = _cap(8, max_n)
    name = f"q-binomial lemmas, m<={qcap}"
    for m in range(1, qcap + 1):
        for l in range(2 * m + 1):
            rep.check(name, formulas.qbinom_lemma_lower(m, l))
        for l in range(1, 2 * m + 1):
            rep.check(name, formulas.qbinom_lemma_upper(m, l))
    name = f"hatted recurrence equals closed form, k<={cap}"
    for k, d in enumerate(ansatz.hatted_coeffs(cap) if cap >= 0 else []):
        for i in range(k + 1):
            for j in range(k + 1):
                rep.check(name, d.get((i, j), ZERO) == ansatz.hatted_closed_form(k, i, j))
    name = "hatted splitting identities"
    for k in range(_cap(8, max_n) + 1):
        for i in range(k + 2):
            for j in range(k + 2):
                if i + j < 1 or (k - i - j + 1) % 2:
                    continue
                e_left = ansatz.hatted_closed_form(k, i, j - 1) if j >= 1 else ZERO
                e_up = ansatz.hatted_closed_form(k, i - 1, j) if i >= 1 else ZERO
                lhs = e_left + monomial(1, eq=j) * e_up
                rhs = q_binomial(i + j, i) * touchard_M((k - i - j + 1) // 2, k)
                rep.check(name, lhs == rhs)
                lhs2 = Y * (ONE - monomial(1, eq=j + 1)) * ansatz.hatted_closed_form(k, i, j + 1)
                low = (k - i - j - 1) // 2
                rhs2 = (
                    Y
                    * (ONE - monomial(1, eq=i + j + 1))
                    * q_binomial(i + j, i)
                    * (touchard_M(low, k) if low >= 0 else ZERO)
                )
                rep.check(name, lhs2 == rhs2)
    return rep


SUITES = {
    "cross-methods": (golden_values, cross_methods, path_sum_suite),
    "bijections": (bijection_suite, decomposition_suite),
    "symmetry": (symmetry_suite,),
    "moments": (moment_suite,),
    "specials": (
        specialization_suite,
        tangent_secant_suite,
        stirling_suite,
        eulerian_suite,
        fine_suite,
    ),
    "identities": (identity_suite,),
}
SUITES["all"] = tuple(fn for name in
                      ("cross-methods", "symmetry", "bijections", "moments", "specials", "identities")
                      for fn in SUITES[name])


def run_suite(name: str, max_n: int | None = None) -> list[VerifyReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [fn(max_n) for fn in SUITES[name]]
