"""Matrix-product ansatz computations.

The stationary weights of the open exclusion process are generated by
operators D and E with D E - q E D = D + E and boundary vectors that the
scaled tridiagonal matrices below realize explicitly:

    (1-q) D:  M[i, i] = 1 + bt q^i,  M[i, i+1] = 1 - at bt q^i
    (1-q) E:  M[i, i] = 1 + at q^i,  M[i, i-1] = 1 - q^i

with at = (1-q)a - 1, bt = (1-q)b - 1, and <W| = |V> = first coordinate.
A product <W| t_1 ... t_N |V> is read right to left from |V>, so each
operator is a paths.StepWeights in the vector index h, the height of a
Motzkin path: (M[h+1, h], M[h, h], M[h-1, h]) weigh an up, a level and a
down step.  No dimension is ever fixed, and paths.motzkin_sum adds up the
paths that return to index 0.

Independently of any representation, the normal ordering of (yD + E)^N in
the free algebra gives coefficients c[N][i, j] with
(yD+E)^N = sum c[N][i,j] E^i D^j, built from c[N-1] by right multiplication
with yD + E under D E = q E D + D + E alone; the partition function is
obtained by replacing E^i D^j with a^i b^j.  A second, rook-placement
flavored route normal orders (qy Dh + q Eh)^k for the shifted operators
Dh = ((q-1) D + I)/q, Eh = ((q-1) E + I)/q whose coefficients d[k][i, j]
satisfy a three-term recurrence solved by q-binomial times the
ballot-difference kernel M.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .paths import StepWeights, motzkin_sum
from .polyring import (
    ALPHA_TILDE,
    BETA_TILDE,
    MPoly,
    ONE,
    Q,
    Y,
    ZERO,
    exact_div_pow_one_minus_q,
    monomial,
)
from .qtools import binomial, q_binomial, touchard_M


SCALED_D = StepWeights(
    up=None,
    level=lambda h: ONE + BETA_TILDE * monomial(1, eq=h),
    down=lambda h: ONE - ALPHA_TILDE * BETA_TILDE * monomial(1, eq=h - 1),
)
SCALED_E = StepWeights(
    up=lambda h: ONE - monomial(1, eq=h + 1),
    level=lambda h: ONE + ALPHA_TILDE * monomial(1, eq=h),
    down=None,
)


@lru_cache(maxsize=None)
def zn_matrix(N: int) -> MPoly:
    """Partition function as <W| (yD + E)^N |V> on the explicit matrices."""
    m = StepWeights(
        up=SCALED_E.up,
        level=lambda h: Y * SCALED_D.level(h) + SCALED_E.level(h),
        down=lambda h: Y * SCALED_D.down(h),
    )
    return exact_div_pow_one_minus_q(motzkin_sum(N, lambda k: m), N)


def state_weight(word: str) -> MPoly:
    """Unnormalized stationary weight of an occupation word over {D, E}.

    D marks an occupied site, E an empty one; the weight is
    <W| t_1 ... t_N |V> computed on the scaled matrices and divided by
    (1-q)^N exactly.
    """
    word = word.upper()
    if any(ch not in "DE" for ch in word):
        raise ValueError("word must be over the alphabet {D, E}")
    N = len(word)
    ops = {"D": SCALED_D, "E": SCALED_E}
    return exact_div_pow_one_minus_q(motzkin_sum(N, lambda k: ops[word[N - 1 - k]]), N)


# ---------------------------------------------------------------------------
# Normal ordering in the free algebra
# ---------------------------------------------------------------------------


# Each recurrence below keeps every term it has built in a list and extends
# it from the last one, so a large index costs no recursion depth.

Coeffs = dict[tuple[int, int], MPoly]  # (i, j) -> coefficient of E^i D^j


def _extend(built: list[Coeffs], k: int, step: Callable[[Coeffs, int], Coeffs]) -> Coeffs:
    """built[k], after appending step(built[m - 1], m) for m = len(built) .. k."""
    while len(built) <= k:
        built.append(step(built[-1], len(built)))
    return built[k]


def _d_power_e_step(prev: Coeffs, j: int) -> Coeffs:
    out = {(0, j): ONE}
    for (i, k), c in prev.items():
        out[(i, k + 1)] = out.get((i, k + 1), ZERO) + Q * c
        out[(i, k)] = out.get((i, k), ZERO) + c
    return out


_D_POWER_E: list[Coeffs] = [{(1, 0): ONE}]


def _d_power_e(j: int) -> Coeffs:
    """Normal form of D^j E as a map (i, k) -> coefficient of E^i D^k.

    D^j E = D^(j-1) (q E D + D + E) = q (D^(j-1) E) D + D^j + D^(j-1) E, so
    every term is E D^k or D^k and the coefficients are polynomials in q.
    """
    return _extend(_D_POWER_E, j, _d_power_e_step)


def _normal_order_step(prev: Coeffs, N: int) -> Coeffs:
    out: Coeffs = {}

    def add(key, val):
        out[key] = out.get(key, ZERO) + val

    for (i, j), c in prev.items():
        add((i, j + 1), Y * c)
        for (a, k), f in _d_power_e(j).items():
            add((i + a, k), f * c)
    return out


_NORMAL_ORDER: list[Coeffs] = [{(0, 0): ONE}]


def normal_order(N: int) -> Coeffs:
    """Coefficients c[N][i, j] of (yD + E)^N = sum c E^i D^j.

    Computed over the free algebra by right multiplication,
    E^i D^j (yD + E) = y E^i D^(j+1) + E^i (D^j E), with D^j E normal
    ordered by _d_power_e; the coefficients are polynomials in y and q with
    non-negative integer coefficients.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return _extend(_NORMAL_ORDER, N, _normal_order_step)


@lru_cache(maxsize=None)
def zn_normal(N: int) -> MPoly:
    """Partition function assembled from the normal form: sum c[i,j] a^i b^j."""
    acc = ZERO
    for (i, j), c in normal_order(N).items():
        acc = acc + c * monomial(1, ea=i, eb=j)
    return acc


# ---------------------------------------------------------------------------
# Hatted operators
# ---------------------------------------------------------------------------


def _hatted_step(prev: Coeffs, k: int) -> Coeffs:
    out: Coeffs = {}

    def add(key, val):
        out[key] = out.get(key, ZERO) + val

    for (i, j), c in prev.items():
        add((i, j + 1), c)
        add((i + 1, j), monomial(1, eq=j) * c)
        if j >= 1:
            add((i, j - 1), Y * (ONE - monomial(1, eq=j)) * c)
    return {key: c for key, c in out.items() if c}


_HATTED: list[Coeffs] = [{(0, 0): ONE}]


def hatted_coeffs(k: int) -> Coeffs:
    """d[k][i, j] by the recurrence
    d[k+1][i,j] = d[k][i,j-1] + q^j d[k][i-1,j] + y(1 - q^(j+1)) d[k][i,j+1]
    from d[0] = {(0,0): 1}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _extend(_HATTED, k, _hatted_step)


def hatted_closed_form(k: int, i: int, j: int) -> MPoly:
    """Closed form [i+j, i]_q * M((k-i-j)/2, k); zero when k-i-j is odd."""
    if (k - i - j) % 2:
        return ZERO
    return q_binomial(i + j, i) * touchard_M((k - i - j) // 2, k)


@lru_cache(maxsize=None)
def zn_hatted(N: int) -> MPoly:
    """Partition function through the shifted-operator normal form.

    (1-q)^N Z equals sum over k of C(N,k) (1+y)^(N-k) (-1)^k times the
    (0,0) expectation of (qy Dh + q Eh)^k, and that expectation expands as
    sum d[k][i,j] (-at)^i (-y bt)^j; the parity of d makes all signs cancel.
    """
    acc = ZERO
    one_plus_y_pow = [ONE]
    for _ in range(N):
        one_plus_y_pow.append(one_plus_y_pow[-1] * (ONE + Y))
    for k in range(N + 1):
        inner = ZERO
        for (i, j), c in hatted_coeffs(k).items():
            inner = inner + c * ALPHA_TILDE**i * (Y * BETA_TILDE) ** j
        acc = acc + binomial(N, k) * one_plus_y_pow[N - k] * inner
    return exact_div_pow_one_minus_q(acc, N)
