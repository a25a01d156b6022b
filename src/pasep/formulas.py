"""Closed formulas for the partition function and its specializations.

The headline formula expresses the partition function as

    Z(N) = (1-q)^(-N) * sum_{n=0..N} R(N, n) * B(n)

where R(N, n) is a ballot-type double sum in y and q (qtools.q_ballot_sum)
and B(n) is the Rogers-Szego sum_k [n,k]_q at^k (y bt)^(n-k) in the shifted
boundary parameters (qtools.rogers_szego).  zn_closed keeps at and bt as
variables through the whole sum and leaves the shifted basis once, through
polyring.from_shifted; B_formula is B(n) expanded in a, b and q, the form
the path sums are checked against.  Around it live the y=1 collapse
of R, the a=b=1 triple sum, the y=q=1 rising product, the Al-Salam-Chihara
moment formulas (both the ballot form and Stanton's rational evaluation),
q-secant and q-tangent numbers, Carlitz q-Stirling numbers, q-Eulerian
extraction, Fine polynomials, and the standalone binomial identities used
along the way.  Every ballot difference is qtools.ballot.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .paths import StepWeights
from .polyring import (
    A,
    ALPHA_TILDE,
    B,
    BETA_TILDE,
    MPoly,
    ONE,
    Q,
    Y,
    ZERO,
    coeff_of,
    exact_div_pow_one_minus_q,
    exact_div_var,
    from_shifted,
    monomial,
    substitute,
)
from .qtools import (
    ballot,
    binomial,
    motzkin_prefix_gf,
    q_ballot_sum,
    q_binomial,
    q_int,
    q_pochhammer_eval,
    rogers_szego,
    touchard_M,
)


class SingularPoint(ArithmeticError):
    """A rational evaluation point makes a denominator factor vanish."""


# ---------------------------------------------------------------------------
# The main closed formula
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def R_formula(N: int, n: int) -> MPoly:
    """R(N, n) = sum_i (-y)^i q^C(i+1,2) [n+i, i]_q *
    sum_j y^j (C(N,j) C(N,n+2i+j) - C(N,j-1) C(N,n+2i+j+1))."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    weights = [monomial(1, ey=i) * motzkin_prefix_gf(N, n + 2 * i) for i in range((N - n) // 2 + 1)]
    return q_ballot_sum(n, weights)


def R_y1(N: int, n: int) -> MPoly:
    """The y=1 collapse: sum_i (-1)^i (C(2N,N-n-2i) - C(2N,N-n-2i-2))
    q^C(i+1,2) [n+i, i]_q."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    diffs = (binomial(2 * N, j) - binomial(2 * N, j - 2) for j in range(N - n, -1, -2))
    return q_ballot_sum(n, diffs)


def B_formula(n: int) -> MPoly:
    """B(n) = sum_k [n, k]_q at^k (y bt)^(n-k), expanded in a, b, y, q."""
    if n < 0:
        raise ValueError("B_formula requires n >= 0")
    return rogers_szego(n, ALPHA_TILDE, Y * BETA_TILDE)


@lru_cache(maxsize=None)
def zn_closed(N: int) -> MPoly:
    """Partition function by the closed formula, summed in the shifted basis.

    Each B(n) stays a Rogers-Szego sum in the variables at and bt, held in
    the a and b slots, and from_shifted takes the whole sum back to a and b
    and divides it by (1-q)^N, once.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    acc = ZERO
    for n in range(N + 1):
        acc = acc + R_formula(N, n) * rogers_szego(n, A, Y * B)
    return from_shifted(acc, N)


# Z(N) at the points that several checks read, each substituted once per N
# (q_eulerian reads zn_ab1 once per k, q_stirling2's from_Z zn_a1 once per k,
# and mu_from_Z reads zn_y1(k) for every N >= k).


@lru_cache(maxsize=None)
def zn_y1(N: int) -> MPoly:
    """Z(N) at y = 1."""
    return substitute(zn_closed(N), "y", 1)


@lru_cache(maxsize=None)
def zn_a1(N: int) -> MPoly:
    """Z(N) at a = 1."""
    return substitute(zn_closed(N), "a", 1)


@lru_cache(maxsize=None)
def zn_ab1(N: int) -> MPoly:
    """Z(N) at a = b = 1."""
    return substitute(zn_a1(N), "b", 1)


def zn_cas1(N: int) -> MPoly:
    """The a = b = 1 specialization from the printed triple sum.

    The triple sum equals (1-q)^(N+1) * y * Z(N) at a = b = 1 (the extra
    factor y is the one carried by the q-Laguerre moment it came from), so
    both exact divisions are performed before returning Z(N)|_{a=b=1}.
    """
    if N < 0:
        raise ValueError("zn_cas1 requires N >= 0")
    acc = ZERO
    M = N + 1
    for k in range(M + 1):
        inner2 = ZERO
        for i in range(k + 1):
            inner2 = inner2 + monomial(1, ey=i, eq=i * (k + 1 - i))
        term = motzkin_prefix_gf(M, k) * inner2
        acc = acc + (term if k % 2 == 0 else -term)
    return exact_div_var(exact_div_pow_one_minus_q(acc, N + 1), "y", 1)


def zn_product_y1q1(N: int) -> MPoly:
    """The y = q = 1 evaluation: rising product of (a + b + i) over i < N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    acc = ONE
    a_plus_b = monomial(1, ea=1) + monomial(1, eb=1)
    for i in range(N):
        acc = acc * (a_plus_b + i)
    return acc


# ---------------------------------------------------------------------------
# Al-Salam-Chihara moments
# ---------------------------------------------------------------------------


def asc_mom_closed(N: int) -> MPoly:
    """2^N times the N-th Al-Salam-Chihara moment, as a polynomial in a, b, q.

    Here a and b are the polynomial variables standing for the two ASC
    parameters.  The n-sum is parity restricted to n = N mod 2:
    sum_n M((N-n)/2, N)|_{y=1} * sum_k [n,k]_q a^k b^(n-k).
    """
    if N < 0:
        raise ValueError("asc_mom_closed requires N >= 0")
    acc = ZERO
    for n in range(N % 2, N + 1, 2):
        kernel = substitute(touchard_M((N - n) // 2, N), "y", ONE)
        acc = acc + kernel * rogers_szego(n, A, B)
    return acc


def asc_recurrence(x: MPoly, z: MPoly, c: int = 0) -> StepWeights:
    """Al-Salam-Chihara recurrence with parameters x, z and level shift c.

    Level weight c + (x+z) q^h, down weight (1-q^h)(1 - xz q^(h-1)).
    """
    x_plus_z, xz = x + z, x * z
    return StepWeights(
        up=lambda h: ONE,
        level=lambda h: c + x_plus_z * monomial(1, eq=h),
        down=lambda h: (ONE - monomial(1, eq=h)) * (ONE - xz * monomial(1, eq=h - 1)),
    )


# ASC recurrence in x/2: its N-th moment is 2^N mu(N) = asc_mom_closed(N).
ASC_HALVED = asc_recurrence(A, B)
# ASC recurrence whose N-th moment is (1-q)^N Z(N) at y = 1.  Built from the
# ASC weights, not the family-P step weights of zn_paths, so the moment
# check stays independent of that route.
SHIFTED_Z = asc_recurrence(ALPHA_TILDE, BETA_TILDE, 2)
# Down weight [h]_q^2; even moments are the q-secant numbers.
QSECANT = StepWeights(up=lambda h: ONE, level=None, down=lambda h: q_int(h) * q_int(h))
# Down weight [h]_q [h+1]_q; even moments are the q-tangent numbers.
QTANGENT = StepWeights(up=lambda h: ONE, level=None, down=lambda h: q_int(h) * q_int(h + 1))


def mu_from_Z(N: int) -> MPoly:
    """2^N times the ASC moment via the binomial transform of Z(k) at y = 1.

    2^N mu(N) = sum_k C(N,k) (-1)^(N-k) 2^(N-k) (1-q)^k Z(k)|_{y=1},
    rewritten in the shifted parameters: a monomial a^i b^j of Z(k) becomes
    (at+1)^i (bt+1)^j (1-q)^(k-i-j), which keeps everything integral.  The
    returned polynomial uses the variables a, b for the ASC parameters and
    equals asc_mom_closed(N).
    """
    if N < 0:
        raise ValueError("mu_from_Z requires N >= 0")
    a1 = monomial(1, ea=1) + ONE
    b1 = monomial(1, eb=1) + ONE
    # the powers 0 .. N of (at+1), (bt+1) and (1-q), each built once
    a_pow, b_pow, q_pow = [ONE], [ONE], [ONE]
    for _ in range(N):
        a_pow.append(a_pow[-1] * a1)
        b_pow.append(b_pow[-1] * b1)
        q_pow.append(q_pow[-1] * (ONE - Q))
    acc = ZERO
    for k in range(N + 1):
        # the q-polynomial of each a^i b^j in Z(k) at y = 1, rewritten once
        groups: dict[tuple[int, int], dict] = {}
        for (_, eq, ea, eb), c in zn_y1(k).items():
            groups.setdefault((ea, eb), {})[(0, eq, 0, 0)] = c
        rewritten = ZERO
        for (ea, eb), qpoly in groups.items():
            rewritten = rewritten + MPoly(qpoly) * q_pow[k - ea - eb] * a_pow[ea] * b_pow[eb]
        sign = -1 if (N - k) % 2 else 1
        acc = acc + sign * binomial(N, k) * (2 ** (N - k)) * rewritten
    return acc


def stanton_moment_eval(N: int, a, b, q) -> Fraction:
    """Exact rational evaluation of the Askey-Wilson-specialized moment sum.

    mu(N) = 2^(-N) sum_k (ab; q)_k q^k sum_j
            q^(-j^2) a^(-2j) (q^j a + q^-j a^-1)^N
            / ((q; q)_j (a^-2 q^(1-2j); q)_j (q; q)_(k-j) (a^2 q^(1+2j); q)_(k-j)).

    With a = an/ad and q = qn/qd, every factor is an unreduced integer pair
    (numerator, denominator); the sum is taken over their product as the
    common denominator and reduced once, at the end.  The j-th summand
    numerator is (q^(2j) a^2 + 1)^N / (q^(j^2 + jN) a^(2j + N)).

    Raises SingularPoint when a = 0, q = 0 or any denominator factor
    vanishes; callers resample.
    """
    from fractions import Fraction

    if N < 0:
        raise ValueError("N must be >= 0")
    a, b, q = Fraction(a), Fraction(b), Fraction(q)
    if a == 0 or q == 0:
        raise SingularPoint("a = 0 or q = 0")
    an, ad = a.numerator, a.denominator
    qn, qd = q.numerator, q.denominator
    a2n, a2d = an * an, ad * ad
    qq = [q_pochhammer_eval(qn, qd, qn, qd, m) for m in range(N + 1)]  # (q; q)_m
    # per j: (a^-2 q^(1-2j); q)_j and the j-th summand numerator, both free of k
    low, numer = [], []
    for j in range(N + 1):
        q2n, q2d = qn ** (2 * j), qd ** (2 * j)
        low.append(q_pochhammer_eval(a2d * qn * q2d, a2n * qd * q2n, qn, qd, j))
        numer.append((
            qd ** (j * j) * ad ** (2 * j) * (q2n * a2n + q2d * a2d) ** N,
            qn ** (j * j) * an ** (2 * j) * (qn * qd) ** (j * N) * (an * ad) ** N,
        ))
    abn, abd = an * b.numerator, ad * b.denominator
    tn, td = 0, 1
    for k in range(N + 1):
        pn, pd = q_pochhammer_eval(abn, abd, qn, qd, k)
        sn, sd = 0, 1
        for j in range(k + 1):
            hn, hd = q_pochhammer_eval(a2n * qn ** (2 * j + 1), a2d * qd ** (2 * j + 1), qn, qd, k - j)
            dn = qq[j][0] * low[j][0] * qq[k - j][0] * hn
            if dn == 0:
                raise SingularPoint(f"denominator vanishes at k={k}, j={j}")
            dd = qq[j][1] * low[j][1] * qq[k - j][1] * hd
            un, ud = numer[j][0] * dd, numer[j][1] * dn
            sn, sd = sn * ud + un * sd, sd * ud
        pn *= qn**k * sn
        pd *= qd**k * sd
        tn, td = tn * pd + pn * td, td * pd
    return Fraction(tn, td * 2**N)


# ---------------------------------------------------------------------------
# q-secant and q-tangent numbers
# ---------------------------------------------------------------------------


def q_tangent_secant(n: int) -> MPoly:
    """E_n(q) by the ballot-type closed formulas, n = 2t + odd:

    E_{2t}(q)   = (1-q)^(-2t) sum_m (C(2t,t-m) - C(2t,t-m-1))
                  sum_{l=0..2m} (-1)^(l+m) q^(l(2m-l)+m)
    E_{2t+1}(q) = (1-q)^(-2t-1) sum_m (C(2t+1,t-m) - C(2t+1,t-m-1))
                  sum_{l=0..2m+1} (-1)^(l+m) q^(l(2m+2-l))

    E_0 = 1 (the even formula at t = 0).
    """
    if n < 0:
        raise ValueError("q_tangent_secant requires n >= 0")
    t, odd = divmod(n, 2)
    acc = ZERO
    for m in range(t + 1):
        c = ballot(n, t - m)
        for l in range(2 * m + odd + 1):
            acc = acc + monomial((-1) ** (l + m) * c, eq=l * (2 * m + 2 * odd - l) + m * (1 - odd))
    return exact_div_pow_one_minus_q(acc, n)


# ---------------------------------------------------------------------------
# Carlitz q-Stirling numbers of the second kind
# ---------------------------------------------------------------------------


def _carlitz_sum(m: int, r: int, x: MPoly | int) -> MPoly:
    """sum_j (-1)^j C(m, r+j) x^j [r+j, j]_q for x = q or 1."""
    acc = ZERO
    for j in range(m - r + 1):
        acc = acc + binomial(m, r + j) * (-x) ** j * q_binomial(r + j, j)
    return acc


@lru_cache(maxsize=None)
def _stirling_rec(n: int, k: int) -> MPoly:
    if k < 1 or k > n:
        return ZERO
    if k == 1 or k == n:
        return ONE
    return _stirling_rec(n - 1, k - 1) + q_int(k) * _stirling_rec(n - 1, k)


def q_stirling2(n: int, k: int, method: str = "recurrence") -> MPoly:
    """S2[n, k] by one of four routes that must agree.

    recurrence:  S2[n,k] = S2[n-1,k-1] + [k]_q S2[n-1,k], boundary 1.
    carl1:       (1-q)^(k-n) sum_j (-q)^j C(n-1, k-1+j) [k-1+j, j]_q.
    carl2:       (1-q)^(k-n) sum_j (-1)^j C(n, k+j) [k+j, j]_q.
    from_Z:      coefficient of b^(k-1) y^(k-1) in Z(n-1) at a = 1.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if method == "recurrence":
        return _stirling_rec(n, k)
    if method == "carl1":
        return exact_div_pow_one_minus_q(_carlitz_sum(n - 1, k - 1, Q), n - k)
    if method == "carl2":
        return exact_div_pow_one_minus_q(_carlitz_sum(n, k, 1), n - k)
    if method == "from_Z":
        return coeff_of(coeff_of(zn_a1(n - 1), "y", k - 1), "b", k - 1)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# q-Eulerian extraction and the classical reference triangles
# ---------------------------------------------------------------------------


def q_eulerian(N: int, k: int) -> MPoly:
    """Coefficient of y^k in Z(N) at a = b = 1 (a q-Eulerian polynomial)."""
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    return coeff_of(zn_ab1(N), "y", k)


@lru_cache(maxsize=None)
def eulerian_number(n: int, k: int) -> int:
    """Classical Eulerian triangle: permutations of n with k-1 descents."""
    if n < 1 or k < 1 or k > n:
        return 0
    if n == 1:
        return 1 if k == 1 else 0
    return (n - k + 1) * eulerian_number(n - 1, k - 1) + k * eulerian_number(n - 1, k)


def narayana_number(n: int, k: int) -> int:
    """N(n, k) = C(n, k) C(n, k-1) / n."""
    if n < 1 or k < 1 or k > n:
        return 0
    return binomial(n, k) * binomial(n, k - 1) // n


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Fine polynomials
# ---------------------------------------------------------------------------


def fine_from_Z(N: int) -> MPoly:
    """F_N(y) as the q = 0, b = 1, a = -y specialization of Z(N)."""
    z = substitute(zn_closed(N), "q", ZERO)
    z = substitute(z, "b", ONE)
    return substitute(z, "a", -Y)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def idbinl_check(N: int, n: int, i: int) -> bool:
    """Dyck-prefix versus Motzkin-prefix binomial identity, as polynomials in y.

    sum_{k>=i} y^(k-i) C(N, n+2k) (1+y)^(N-n-2k)
               (C(n+2k, k-i) - C(n+2k, k-i-1))
      == sum_j y^j (C(N,j) C(N,n+2i+j) - C(N,j-1) C(N,n+2i+j+1)).
    """
    lhs = ZERO
    upper = (N - n) // 2 if N >= n else -1
    for k in range(i, upper + 1):
        c = binomial(N, n + 2 * k) * ballot(n + 2 * k, k - i)
        if not c:
            continue
        lhs = lhs + monomial(c, ey=k - i) * (ONE + Y) ** (N - n - 2 * k)
    return lhs == motzkin_prefix_gf(N, n + 2 * i)


def _lemma_sum(m: int, l: int, shift: int) -> MPoly:
    """sum_j (-1)^j q^C(j-shift,2) [2m-j, l]_q [l, j]_q, C(x,2) = x(x-1)/2."""
    acc = ZERO
    for j in range(l + 1):
        term = monomial((-1) ** j, eq=(j - shift) * (j - shift - 1) // 2) * q_binomial(l, j)
        acc = acc + term * q_binomial(2 * m - j, l)
    return acc


def qbinom_lemma_lower(m: int, l: int) -> bool:
    """sum_j (-1)^j q^C(j,2) [2m-j, l]_q [l, j]_q == q^(l(2m-l)), 0 <= l <= 2m."""
    return _lemma_sum(m, l, 0) == monomial(1, eq=l * (2 * m - l))


def qbinom_lemma_upper(m: int, l: int) -> bool:
    """sum_j (-1)^j q^C(j-1,2) [2m-j, l]_q [l, j]_q equals
    (q^((l+1)(2m-l)) - q^(l(2m-l)) + q^(l(2m-l+1)) - q^((l+1)(2m-l+1)))
    / (q^(2m-1) (1-q)), for 1 <= l <= 2m.

    The exponent C(j-1, 2) follows the polynomial convention
    (j-1)(j-2)/2, which is 1 at j = 0.
    """
    numerator = (
        monomial(1, eq=(l + 1) * (2 * m - l))
        - monomial(1, eq=l * (2 * m - l))
        + monomial(1, eq=l * (2 * m - l + 1))
        - monomial(1, eq=(l + 1) * (2 * m - l + 1))
    )
    rhs = exact_div_var(exact_div_pow_one_minus_q(numerator, 1), "q", 2 * m - 1)
    return _lemma_sum(m, l, 1) == rhs
