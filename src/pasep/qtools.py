"""q-calculus and binomial building blocks.

Small, heavily reused primitives: q-integers, Gaussian binomials, q-Pochhammer
evaluation on integer numerator/denominator pairs, ordinary binomials with
the out-of-range-zero convention and weighted lattice-prefix counting
polynomials.  Every closed formula is built from the three kernels defined
only here: the ballot difference `ballot`, the alternating q-binomial sum
`q_ballot_sum` (of which the hatted normal ordering's M(l, k) is one
instance) and the homogeneous Rogers-Szego polynomial `rogers_szego`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable

from .polyring import MPoly, ONE, Q, Y, ZERO, monomial


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0 or k > n.

    The zero convention is load-bearing: `ballot` and the prefix counts
    silently rely on terms like C(N, j-1) vanishing at j=0.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def ballot(n: int, k: int) -> int:
    """Ballot difference C(n, k) - C(n, k-1); 0 for k < 0 and k > n + 1."""
    return binomial(n, k) - binomial(n, k - 1)


def q_int(k: int) -> MPoly:
    """[k]_q = 1 + q + ... + q^(k-1); [0]_q = 0."""
    return MPoly({(0, i, 0, 0): 1 for i in range(k)})


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> MPoly:
    """Gaussian binomial [n, k]_q via [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return q_binomial(n - 1, k - 1) + Q**k * q_binomial(n - 1, k)


def q_ballot_sum(n: int, weights: Iterable[MPoly | int]) -> MPoly:
    """sum_i (-1)^i q^C(i+1,2) [n+i, i]_q weights[i] over the given weights.

    The weights are integers or polynomials.  R(N, n), its y = 1 collapse
    and M(l, k) (hence the Al-Salam-Chihara moment kernel) are instances.
    """
    acc = ZERO
    for i, w in enumerate(weights):
        if w:
            acc = acc + monomial((-1) ** i, eq=i * (i + 1) // 2) * w * q_binomial(n + i, i)
    return acc


def rogers_szego(n: int, x: MPoly, z: MPoly) -> MPoly:
    """Homogeneous Rogers-Szego polynomial sum_k [n, k]_q x^k z^(n-k)."""
    acc = ZERO
    for k in range(n + 1):
        acc = acc + q_binomial(n, k) * x**k * z ** (n - k)
    return acc


def q_pochhammer_eval(xn: int, xd: int, qn: int, qd: int, k: int) -> tuple[int, int]:
    """(x; q)_k = prod_{i<k} (1 - x q^i) at x = xn/xd, q = qn/qd, as the
    unreduced integer pair (prod_{i<k} (xd qd^i - xn qn^i), xd^k qd^C(k,2)).

    The empty product is (1, 1).  The numerator is 0 exactly when some
    factor vanishes, since the denominator is never 0 for xd, qd != 0.
    """
    num = 1
    pn = pd = 1
    for _ in range(k):
        num *= xd * pd - xn * pn
        pn *= qn
        pd *= qd
    return num, xd**k * qd ** (k * (k - 1) // 2)


def motzkin_prefix_gf(N: int, h: int) -> MPoly:
    """Weighted count of Motzkin prefixes of length N and final height h.

    Weight 1+y on every level step and y on every down step:
    sum_j y^j (C(N,j) C(N,h+j) - C(N,j-1) C(N,h+j+1)).
    """
    out: dict[tuple[int, int, int, int], int] = {}
    for j in range(N - h + 1):
        c = binomial(N, j) * binomial(N, h + j) - binomial(N, j - 1) * binomial(N, h + j + 1)
        if c:
            out[(j, 0, 0, 0)] = c
    return MPoly(out)


@lru_cache(maxsize=None)
def touchard_M(l: int, k: int) -> MPoly:
    """Ballot-difference kernel M(l, k).

    y^l sum_u (-1)^u q^(u(u+1)/2) [k-2l+u, u]_q (C(k, l-u) - C(k, l-u-1)),
    with M(l, k) = 0 for l < 0 by convention.
    """
    if l < 0:
        return ZERO
    if 2 * l > k:
        raise ValueError("touchard_M requires 0 <= 2l <= k")
    return Y**l * q_ballot_sum(k - 2 * l, [ballot(k, l - u) for u in range(l + 1)])
