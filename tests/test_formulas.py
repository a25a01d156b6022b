import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from pasep.ansatz import hatted_closed_form
from pasep.formulas import (
    ASC_HALVED,
    B_formula,
    QSECANT,
    QTANGENT,
    R_formula,
    R_y1,
    SingularPoint,
    asc_mom_closed,
    catalan_number,
    eulerian_number,
    fine_from_Z,
    idbinl_check,
    mu_from_Z,
    narayana_number,
    q_eulerian,
    q_stirling2,
    q_tangent_secant,
    qbinom_lemma_lower,
    qbinom_lemma_upper,
    stanton_moment_eval,
    zn_cas1,
    zn_closed,
    zn_product_y1q1,
)
from pasep.paths import jfraction_moment
from pasep.perms import alternating_E, enumerate_permutations, stats
from pasep.polyring import (
    A,
    B,
    MPoly,
    ONE,
    Q,
    Y,
    ZERO,
    canonical_string,
    coeff_of,
    eval_rational,
    monomial,
    parse_poly,
    substitute,
    y_reflect,
)
from pasep.qtools import binomial, rogers_szego, touchard_M
from pasep.verify import MOMENT_POINTS, MOMENT_SEED

GOLDEN = {
    0: "1",
    1: "y*b + a",
    2: "y^2*b^2 + y*q*a*b + y*a*b + y*a + y*b + a^2",
}


def test_R_at_y_zero_is_binomial():
    for N in range(7):
        for n in range(N + 1):
            assert substitute(R_formula(N, n), "y", ZERO) == binomial(N, n) * ONE


def test_R_y1_frozen():
    assert R_y1(2, 0) == 5 * ONE - Q
    for N in range(7):
        assert R_y1(N, N) == ONE


def test_R_collapse_at_y1():
    for N in range(7):
        for n in range(N + 1):
            assert substitute(R_formula(N, n), "y", ONE) == R_y1(N, n)


def test_B_small():
    assert B_formula(0) == ONE
    assert canonical_string(B_formula(1)) == canonical_string(
        ((ONE - Q) * A - ONE) + Y * ((ONE - Q) * B - ONE)
    )


def test_zn_closed_golden_and_symmetry():
    for N, s in GOLDEN.items():
        assert canonical_string(zn_closed(N)) == s
    for N in range(8):
        z = zn_closed(N)
        assert y_reflect(z, N) == z


def test_cas1():
    assert zn_cas1(0) == ONE
    assert zn_cas1(1) == ONE + Y
    for N in range(7):
        want = substitute(substitute(zn_closed(N), "a", ONE), "b", ONE)
        assert zn_cas1(N) == want


def test_product_formula():
    a_plus_b = A + B
    assert zn_product_y1q1(0) == ONE
    assert zn_product_y1q1(3) == a_plus_b * (a_plus_b + ONE) * (a_plus_b + 2 * ONE)
    for N in range(9):
        want = substitute(substitute(zn_closed(N), "y", ONE), "q", ONE)
        assert zn_product_y1q1(N) == want


def test_asc_moments_small():
    assert asc_mom_closed(0) == ONE
    assert asc_mom_closed(1) == A + B
    for N in range(7):
        assert asc_mom_closed(N) == jfraction_moment(ASC_HALVED, N)
        assert mu_from_Z(N) == asc_mom_closed(N)


def _perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        pair = (first, other)
        remaining = rest[:i] + rest[i + 1 :]
        for m in _perfect_matchings(remaining):
            yield (pair,) + m


def _matching_crossings(matching):
    cr = 0
    for (a1, b1), (a2, b2) in combinations(matching, 2):
        lo1, hi1 = min(a1, b1), max(a1, b1)
        lo2, hi2 = min(a2, b2), max(a2, b2)
        if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
            cr += 1
    return cr


def test_hermite_smoke():
    # at a=b=0: zero for odd order, and (1-q)^m times the crossing
    # distribution of perfect matchings for order 2m
    for N in range(7):
        v = substitute(substitute(asc_mom_closed(N), "a", ZERO), "b", ZERO)
        if N % 2:
            assert v == ZERO
        else:
            m = N // 2
            dist = ZERO
            for match in _perfect_matchings(tuple(range(2 * m))):
                dist = dist + monomial(1, eq=_matching_crossings(match))
            assert v == (ONE - Q) ** m * dist


def test_stanton_point_evaluations():
    assert stanton_moment_eval(0, 2, 3, Fraction(1, 2)) == 1
    assert stanton_moment_eval(1, 2, 3, Fraction(1, 2)) == Fraction(5, 2)
    with pytest.raises(SingularPoint):
        stanton_moment_eval(2, 0, 1, Fraction(1, 2))
    rng = random.Random(7)
    for N in range(5):
        done = 0
        while done < 6:
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            q = Fraction(rng.randint(-5, 5), rng.randint(2, 6))
            if a == 0 or q in (0, 1, -1):
                continue
            try:
                got = stanton_moment_eval(N, a, b, q)
            except SingularPoint:
                continue
            want = eval_rational(asc_mom_closed(N), a=a, b=b, y=1, q=q) / 2**N
            assert got == want
            done += 1


def _pochhammer_reference(x, q, k):
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(k):
        out *= 1 - x * power
        power *= q
    return out


def _stanton_reference(N, a, b, q):
    """The moment sum in Fraction arithmetic, one reduced Fraction per factor."""
    a, b, q = Fraction(a), Fraction(b), Fraction(q)
    if a == 0 or q == 0:
        raise SingularPoint("a = 0 or q = 0")
    total = Fraction(0)
    for k in range(N + 1):
        abk = _pochhammer_reference(a * b, q, k)
        inner = Fraction(0)
        for j in range(k + 1):
            denom = (
                _pochhammer_reference(q, q, j)
                * _pochhammer_reference(a**-2 * q ** (1 - 2 * j), q, j)
                * _pochhammer_reference(q, q, k - j)
                * _pochhammer_reference(a**2 * q ** (1 + 2 * j), q, k - j)
            )
            if denom == 0:
                raise SingularPoint(f"denominator vanishes at k={k}, j={j}")
            num = q ** (-j * j) * a ** (-2 * j) * (q**j * a + q ** (-j) / a) ** N
            inner += num / denom
        total += abk * q**k * inner
    return total / 2**N


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularPoint as exc:
        return ("SingularPoint", str(exc))


def test_stanton_matches_the_fraction_reference_at_the_moment_points():
    # the moment suite's seeded draw, including the points it skips before
    # calling stanton_moment_eval (a = 0, q in {0, 1, -1})
    rng = random.Random(MOMENT_SEED)
    singular = 0
    for N in range(7):
        done = 0
        while done < MOMENT_POINTS:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            q = Fraction(rng.randint(-6, 6), rng.randint(2, 7))
            got = _outcome(stanton_moment_eval, N, a, b, q)
            assert got == _outcome(_stanton_reference, N, a, b, q), (N, a, b, q)
            if isinstance(got, tuple):
                singular += 1
            elif a != 0 and q not in (0, 1, -1):
                done += 1
    assert singular  # a = 0, q = 0, q = +-1 and vanishing factors all occur


def test_q_tangent_secant():
    assert q_tangent_secant(3) == ONE + Q
    for n in range(1, 8):
        e = q_tangent_secant(n)
        assert e == alternating_E(n)
        if n % 2 == 0:
            assert e == jfraction_moment(QSECANT, n)
        else:
            assert e == jfraction_moment(QTANGENT, n - 1)
    values = [1, 1, 1, 2, 5, 16, 61, 272]
    for n, v in enumerate(values):
        assert substitute(q_tangent_secant(n), "q", ONE).constant_value() == v


def test_q_stirling_routes_agree():
    assert q_stirling2(4, 2) == parse_poly("q^2 + 3*q + 3")
    for n in range(1, 10):
        assert q_stirling2(n, 1) == ONE and q_stirling2(n, n) == ONE
        for k in range(1, n + 1):
            ref = q_stirling2(n, k)
            assert q_stirling2(n, k, "carl1") == ref
            assert q_stirling2(n, k, "carl2") == ref
            if n <= 8:
                assert q_stirling2(n, k, "from_Z") == ref


def test_q_stirling_first_kind_extractions_agree():
    # the first-kind q-Stirling numbers are the coefficient of b^k in Z(N) at
    # y = a = 1, or of a^k at y = b = 1; particle-hole symmetry equates them
    for N in range(6):
        z = substitute(zn_closed(N), "y", ONE)
        for k in range(N + 1):
            via_min = coeff_of(substitute(z, "a", ONE), "b", k)
            via_max = coeff_of(substitute(z, "b", ONE), "a", k)
            assert via_min == via_max
            # pattern route: 31-2 distribution over permutations with k+1
            # right-to-left minima (resp. maxima)
            by_t: MPoly = ZERO
            by_s: MPoly = ZERO
            for sigma in enumerate_permutations(N + 1):
                st = stats(sigma)
                if st.t == k + 1:
                    by_t = by_t + monomial(1, eq=st.p31_2)
                if st.s == k + 1:
                    by_s = by_s + monomial(1, eq=st.p31_2)
            assert via_min == by_t and via_max == by_s


def test_q_eulerian_specializations():
    for N in range(6):
        total1 = 0
        total0 = 0
        for k in range(N + 1):
            e = q_eulerian(N, k)
            v1 = substitute(e, "q", ONE).constant_value()
            vm1 = substitute(e, "q", -ONE).constant_value()
            v0 = substitute(e, "q", ZERO).constant_value()
            assert v1 == eulerian_number(N + 1, k + 1)
            assert vm1 == binomial(N, k)
            assert v0 == narayana_number(N + 1, k + 1)
            total1 += v1
            total0 += v0
        fact = 1
        for i in range(2, N + 2):
            fact *= i
        assert total1 == fact
        assert total0 == catalan_number(N + 1)


def test_fine_from_Z_frozen():
    assert fine_from_Z(1) == ZERO
    assert canonical_string(fine_from_Z(5)) == "y^4 + 8*y^3 + 8*y^2 + y"


def test_idbinl():
    assert idbinl_check(0, 0, 0)
    for N in range(8):
        for n in range(N + 1):
            for i in range((N - n) // 2 + 2):
                assert idbinl_check(N, n, i), (N, n, i)
    assert idbinl_check(3, 2, 1)  # n + 2i > N: both sides empty


def test_qbinom_lemmas():
    for m in range(1, 6):
        for l in range(2 * m + 1):
            assert qbinom_lemma_lower(m, l), (m, l)
        for l in range(1, 2 * m + 1):
            assert qbinom_lemma_upper(m, l), (m, l)


@pytest.mark.parametrize(
    "call",
    [
        lambda: R_y1(3, 5),
        lambda: R_y1(3, -1),
        lambda: B_formula(-1),
        lambda: asc_mom_closed(-1),
        lambda: mu_from_Z(-1),
        lambda: zn_cas1(-1),
        lambda: zn_product_y1q1(-1),
        lambda: stanton_moment_eval(-1, 2, 3, Fraction(1, 2)),
    ],
    ids=[
        "R_y1(3,5)",
        "R_y1(3,-1)",
        "B_formula",
        "asc_mom_closed",
        "mu_from_Z",
        "zn_cas1",
        "zn_product_y1q1",
        "stanton_moment_eval",
    ],
)
def test_out_of_range_input_is_rejected(call):
    with pytest.raises(ValueError):
        call()


def _closed_formula_lines():
    for N in range(13):
        for n in range(N + 1):
            yield f"R {N} {n} {canonical_string(R_formula(N, n))}"
            yield f"R_y1 {N} {n} {canonical_string(R_y1(N, n))}"
        yield f"B {N} {canonical_string(B_formula(N))}"
        yield f"asc {N} {canonical_string(asc_mom_closed(N))}"
    for k in range(15):
        for l in range(k // 2 + 1):
            yield f"M {l} {k} {canonical_string(touchard_M(l, k))}"
    for n in range(16):
        yield f"E {n} {canonical_string(q_tangent_secant(n))}"
    for n in range(1, 13):
        for k in range(1, n + 1):
            for method in ("carl1", "carl2"):
                yield f"S2 {method} {n} {k} {canonical_string(q_stirling2(n, k, method))}"
    for n in range(7):
        yield f"top {n} {canonical_string(rogers_szego(n, A, Y * B))}"
    for k in range(11):
        for i in range(k + 1):
            for j in range(k + 1 - i):
                yield f"hat {k} {i} {j} {canonical_string(hatted_closed_form(k, i, j))}"


def test_closed_formulas_are_pinned():
    # SHA-256 over the canonical strings of every closed formula built on the
    # qtools kernels, so a kernel change that alters any one output fails here
    digest = hashlib.sha256("\n".join(_closed_formula_lines()).encode()).hexdigest()
    assert digest == "13f4ba2c8fb72b040b9c0f2ae299230ee642d1856a09d9654431e928ada7a06e"
