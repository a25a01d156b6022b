"""Cross-validation suites.

Every check compares two independently computed exact objects and records a
named pass/fail entry in a VerifyReport.  The CLI `verify` subcommand and
the acceptance test module both run these functions; the default bounds are
the desk-scale budgets the suites are pinned at, and a caller-supplied
max_n only ever lowers them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import ansatz, bijections, formulas, paths, perms, tableaux
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

METHODS = {
    "closed": formulas.zn_closed,
    "matrix": ansatz.zn_matrix,
    "normal": ansatz.zn_normal,
    "hatted": ansatz.zn_hatted,
    "perm-wex": perms.zn_perm_wexcr,
    "perm-asc": perms.zn_perm_asc312,
    "tableaux": tableaux.zn_tableaux,
    "histories": paths.zn_histories,
    "paths": paths.zn_paths,
}

FAST_METHODS = ("closed", "matrix", "normal", "hatted")
MOMENT_POINTS = 20  # rational points per N in moment_suite, drawn with MOMENT_SEED
MOMENT_SEED = 20110401


@dataclass
class VerifyReport:
    suite: str
    checks: list[str] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(name)
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
    fast_max = _cap(10, max_n)
    for N in range(slow_max + 1):
        ref = formulas.zn_closed(N)
        for name, fn in METHODS.items():
            if name == "closed":
                continue
            rep.check_eq(f"Z{N} {name} == closed", fn(N), ref)
    for N in range(slow_max + 1, fast_max + 1):
        ref = formulas.zn_closed(N)
        for name in FAST_METHODS:
            if name == "closed":
                continue
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
        z11 = substitute(substitute(formulas.zn_closed(N), "y", ONE), "q", ONE)
        rep.check_eq(f"product formula N={N}", formulas.zn_product_y1q1(N), z11)
    for N in range(_cap(8, max_n) + 1):
        zab1 = substitute(substitute(formulas.zn_closed(N), "a", ONE), "b", ONE)
        rep.check_eq(f"a=b=1 triple sum N={N}", formulas.zn_cas1(N), zab1)
    for N in range(_cap(8, max_n) + 1):
        for n in range(N + 1):
            rep.check_eq(
                f"R({N},{n}) at y=1",
                substitute(formulas.R_formula(N, n), "y", ONE),
                formulas.R_y1(N, n),
            )
    return rep


def bijection_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("bijections")
    cap = _cap(7, max_n)
    u_prime_forms = []  # per n, the Counter of (wex - 1, cr, u', v) over S_n
    for n in range(cap + 1):
        u_prime_form: Counter = Counter()
        u_prime_forms.append(u_prime_form)
        fz_ok = fv_ok = True
        fz_wt = fv_wt = True
        lem1 = lem2 = lem3 = lem4 = lem5 = True
        seen_fz: set = set()
        seen_fv: set = set()
        pending = {}  # sigma -> ((u, wex, v, cr), (u', wex, v, cr)) until tilde(sigma) comes
        for sigma in perms.enumerate_permutations(n):
            st = perms.stats(sigma)
            u_prime_form[st.wex - 1, st.cr, st.u_prime, st.v] += 1
            hz = bijections.foata_zeilberger(sigma)
            hv = bijections.francon_viennot(sigma)
            seen_fz.add(hz)
            seen_fv.add(hv)
            if not (paths.is_valid_history(hz) and paths.is_valid_history(hv)):
                fz_ok = fv_ok = False
            if bijections.foata_zeilberger_inverse(hz) != sigma:
                fz_ok = False
            if bijections.francon_viennot_inverse(hv) != sigma:
                fv_ok = False
            if paths.history_weight(hz) != monomial(1, ey=st.wex, eq=st.cr):
                fz_wt = False
            if paths.history_weight(hv) != monomial(1, ey=st.asc, eq=st.p31_2):
                fv_wt = False
            for info in bijections.fz_step_types(sigma, hz):
                if info.lr_max != info.type1:
                    lem1 = False
                if not info.fixed_point and info.rl_min != info.type2:
                    lem2 = False
            tl = perms.tilde(sigma)
            keys = (st.u, st.wex, st.v, st.cr), (st.u_prime, st.wex, st.v, st.cr)
            partner = keys if tl == sigma else pending.pop(tl, None)
            if partner is None:
                pending[sigma] = keys
            if perms.tilde(tl) != sigma or partner not in (None, keys[::-1]):
                lem3 = False
            infos = bijections.fv_step_types(sigma, hv)
            inv = perms.inverse(sigma)
            for i, info in enumerate(infos, start=1):
                if info.rl_min != info.type1:
                    lem4 = False
                if inv[i - 1] < n:
                    if info.rl_max != (info.type2 and info.type1_all_left):
                        lem5 = False
        rep.check(f"FZ round trip and validity, n={n}", fz_ok)
        rep.check(f"FV round trip and validity, n={n}", fv_ok)
        rep.check(f"FZ weight law y^wex q^cr, n={n}", fz_wt)
        rep.check(f"FV weight law y^asc q^31-2, n={n}", fv_wt)
        rep.check(f"FZ injective on S_{n}", len(seen_fz) == math.factorial(n))
        rep.check(f"FV injective on S_{n}", len(seen_fv) == math.factorial(n))
        rep.check(f"type-1 steps are the left-to-right maxima, n={n}", lem1)
        rep.check(f"type-2 steps are the non-fixed right-to-left minima, n={n}", lem2)
        rep.check(f"tilde involution preserves (u->u', wex, v, cr), n={n}", lem3 and not pending)
        rep.check(f"FV type-1 steps are the right-to-left minima, n={n}", lem4)
        rep.check(f"FV type-2-after-type-1 are the right-to-left maxima, n={n}", lem5)
    for N in range(cap):
        rep.check_eq(
            f"history route equals the u'-form permutation sum, N={N}",
            MPoly(u_prime_forms[N + 1]),
            paths.zn_histories(N),
        )
    bic = True
    for m in range(_cap(8, max_n) + 1):
        for steps in bijections.enumerate_bicolor(m):
            d1, d2 = bijections.bicolor_to_dyck_pair(steps)
            nbeta, nalpha = bijections.bicolor_mark_counts(steps)
            if steps:
                if len(d1) + len(d2) != 2 * len(steps) - 2:
                    bic = False
                if paths.returns(d1) + 1 != nbeta or paths.returns(d2) != nalpha:
                    bic = False
    rep.check("bicolor-to-Dyck-pair mark preservation", bic)
    return rep


def decomposition_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("decomposition")
    pair_max = _cap(4, max_n)
    for N in range(pair_max + 1):
        ok_weight = ok_round = ok_member = True
        for n in range(N + 1):
            b_list = list(paths.enumerate_B_star(n))
            for h1 in paths.enumerate_R_star(N, n):
                w1 = paths.path_weight(h1)
                for h2 in b_list:
                    p = bijections.combine_paths(h1, h2)
                    if not paths.is_valid_family_path(p, "P"):
                        ok_member = False
                    if paths.path_weight(p) != w1 * paths.path_weight(h2):
                        ok_weight = False
                    if bijections.decompose_path(p) != (h1, h2):
                        ok_round = False
        rep.check(f"combine lands in family P, N={N}", ok_member)
        rep.check(f"combine preserves weights, N={N}", ok_weight)
        rep.check(f"decompose inverts combine, N={N}", ok_round)
        ok_inv = True
        for p in paths.enumerate_PN(N):
            h1, h2 = bijections.decompose_path(p)
            if bijections.combine_paths(h1, h2) != p:
                ok_inv = False
        rep.check(f"combine inverts decompose, N={N}", ok_inv)
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
    for N in range(cap + 1):
        for n in range(N + 1):
            rep.check_eq(f"sum R({N},{n})", paths.sum_R(N, n), formulas.R_formula(N, n))
    for n in range(cap + 1):
        rep.check_eq(f"sum B({n})", paths.sum_B(n), formulas.B_formula(n))
    refine_cap = _cap(5, max_n)
    for N in range(refine_cap + 1):
        for n in range(N + 1):
            s = ZERO
            for h in paths.enumerate_R_star(N, n):
                s = s + paths.path_weight(h)
            rep.check_eq(f"starred refinement of R({N},{n})", s, paths.sum_R(N, n))
    for n in range(refine_cap + 1):
        s = ZERO
        for h in paths.enumerate_B_star(n):
            s = s + paths.path_weight(h)
        rep.check_eq(f"starred refinement of B({n})", s, paths.sum_B(n))
    return rep


def moment_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("moments")
    for N in range(_cap(8, max_n) + 1):
        rep.check_eq(
            f"ballot moment formula vs J-fraction, N={N}",
            formulas.asc_mom_closed(N),
            paths.jfraction_moment(formulas.ASC_HALVED, N),
        )
        rep.check_eq(
            f"binomial transform of Z vs ballot formula, N={N}",
            formulas.mu_from_Z(N),
            formulas.asc_mom_closed(N),
        )
    for N in range(_cap(6, max_n) + 1):
        rep.check_eq(
            f"q-Laguerre moment recurrence recovers (1-q)^N Z at y=1, N={N}",
            paths.jfraction_moment(formulas.SHIFTED_Z, N),
            (ONE - Q) ** N * substitute(formulas.zn_closed(N), "y", ONE),
        )
    rng = random.Random(MOMENT_SEED)
    for N in range(_cap(6, max_n) + 1):
        agree = True
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
            want = eval_rational(formulas.asc_mom_closed(N), a=a, b=b, y=1, q=q) / 2**N
            if got != want:
                agree = False
            done += 1
        rep.check(f"rational moment evaluation at {MOMENT_POINTS} points, N={N}", agree)
    return rep


def tangent_secant_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("tangent-secant")
    cap = _cap(10, max_n)
    for n in range(1, cap + 1):
        closed = formulas.q_tangent_secant(n)
        rep.check_eq(f"E_{n} closed vs alternating sum", closed, perms.alternating_E(n))
        if n % 2 == 0:
            cf = paths.jfraction_moment(formulas.QSECANT, n)
        else:
            cf = paths.jfraction_moment(formulas.QTANGENT, n - 1)
        rep.check_eq(f"E_{n} closed vs continued fraction", closed, cf)
    # tangent/secant numbers 1,1,1,2,5,16,61,272,1385; the sequence is
    # anchored at E_0 = 1 since |A_3| = 2 pins E_3(1) = 2
    expected = [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    for n in range(0, min(cap, 8) + 1):
        val = substitute(formulas.q_tangent_secant(n), "q", ONE).constant_value()
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
        ok1 = okm1 = ok0 = True
        row1 = 0
        row0 = 0
        for k in range(N + 1):
            e = formulas.q_eulerian(N, k)
            v1 = substitute(e, "q", ONE).constant_value()
            vm1 = substitute(e, "q", -ONE).constant_value()
            v0 = substitute(e, "q", ZERO).constant_value()
            row1 += v1
            row0 += v0
            if v1 != formulas.eulerian_number(N + 1, k + 1):
                ok1 = False
            if vm1 != binomial(N, k):
                okm1 = False
            if v0 != formulas.narayana_number(N + 1, k + 1):
                ok0 = False
        rep.check(f"q=1 gives the Eulerian row, N={N}", ok1)
        rep.check(f"q=-1 gives the binomial row, N={N}", okm1)
        rep.check(f"q=0 gives the Narayana row, N={N}", ok0)
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
        rep.check(
            f"printed F_{n}",
            canonical_string(formulas.fine_from_Z(n)) == s,
            canonical_string(formulas.fine_from_Z(n)),
        )
    for N in range(_cap(10, max_n) + 1):
        rep.check_eq(f"F_{N} from Z vs Fine paths", formulas.fine_from_Z(N), paths.fine_poly_paths(N))
    for n in range(_cap(12, max_n) + 1):
        # fine polynomials carry no a or b, so y_reflect is the pure
        # coefficient reversal and palindromicity reads as a fixed point
        f = paths.fine_poly_paths(n)
        rep.check_eq(f"F_{n} palindromic", y_reflect(f, n), f)
    for N in range(_cap(7, max_n) + 1):
        z = substitute(substitute(formulas.zn_closed(N), "y", ONE), "q", ZERO)
        rep.check_eq(f"Dyck pair formula at q=0, N={N}", paths.dyck_pair_sum_q0(N), z)
    return rep


def identity_suite(max_n: int | None = None) -> VerifyReport:
    rep = VerifyReport("identities")
    cap = _cap(10, max_n)
    ok = True
    for N in range(cap + 1):
        for n in range(N + 1):
            for i in range((N - n) // 2 + 2):
                if not formulas.idbinl_check(N, n, i):
                    ok = False
    rep.check(f"prefix-count binomial identity, N<={cap}", ok)
    ok = True
    for k in range(cap + 1):
        for n in range(1, k + 2):
            if (k - n + 1) % 2:
                continue
            l_hi = (k - n + 1) // 2
            l_lo = (k - n - 1) // 2
            lhs = touchard_M(l_hi, k) + Y * (ONE - monomial(1, eq=n + 1)) * touchard_M(l_lo, k)
            if lhs != touchard_M(l_hi, k + 1):
                ok = False
    rep.check(f"M three-term recurrence, k<={cap}", ok)
    qcap = _cap(8, max_n)
    ok = True
    for m in range(1, qcap + 1):
        for l in range(2 * m + 1):
            if not formulas.qbinom_lemma_lower(m, l):
                ok = False
        for l in range(1, 2 * m + 1):
            if not formulas.qbinom_lemma_upper(m, l):
                ok = False
    rep.check(f"q-binomial lemmas, m<={qcap}", ok)
    ok = True
    for k in range(cap + 1):
        d = ansatz.hatted_coeffs(k)
        for i in range(k + 1):
            for j in range(k + 1):
                if d.get((i, j), ZERO) != ansatz.hatted_closed_form(k, i, j):
                    ok = False
    rep.check(f"hatted recurrence equals closed form, k<={cap}", ok)
    ok = True
    for k in range(_cap(8, max_n) + 1):
        for i in range(k + 2):
            for j in range(k + 2):
                if i + j < 1 or (k - i - j + 1) % 2:
                    continue
                e_left = ansatz.hatted_closed_form(k, i, j - 1) if j >= 1 else ZERO
                e_up = ansatz.hatted_closed_form(k, i - 1, j) if i >= 1 else ZERO
                lhs = e_left + monomial(1, eq=j) * e_up
                rhs = q_binomial(i + j, i) * touchard_M((k - i - j + 1) // 2, k)
                if lhs != rhs:
                    ok = False
                lhs2 = Y * (ONE - monomial(1, eq=j + 1)) * ansatz.hatted_closed_form(k, i, j + 1)
                low = (k - i - j - 1) // 2
                rhs2 = (
                    Y
                    * (ONE - monomial(1, eq=i + j + 1))
                    * q_binomial(i + j, i)
                    * (touchard_M(low, k) if low >= 0 else ZERO)
                )
                if lhs2 != rhs2:
                    ok = False
    rep.check("hatted splitting identities", ok)
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
