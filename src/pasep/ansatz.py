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
obtained by replacing E^i D^j with a^i b^j, so the normal form, read so,
is Z(N) itself.  Read as D E = E (qD + 1) + D, the relation moves E left
past one D at a time, so a row sum_j c[i,j] D^j times yD + E is taken by
Horner's rule from its top j down.

Each c[n][i, j] is a polynomial in y and q with non-negative integer
coefficients, held packed in one int (polyring's Kronecker substitution):
the coefficient of y^ey q^eq sits in slot ey W + eq, so multiplying by q is
a shift by one slot and by y a shift by W slots.  Nothing is ever
subtracted, so every slot of every intermediate is at most a coefficient of
some c[n], n <= N, and its monomial is one of c[n]'s.  Hence the slots never
spill into each other, with the bound (N+1)! for slot_bytes (the
coefficients of c[n] add up to Z(n) at y = q = a = b = 1, which is (n+1)!)
and W = floor(N^2/4) + 2 slots a y row: each q records one D before E pair
swapped, the other two terms drop a letter, and a word of N letters has at
most floor(N^2/4) such pairs.

A second, rook-placement flavored route normal orders (qy Dh + q Eh)^k for
the shifted operators Dh = ((q-1) D + I)/q, Eh = ((q-1) E + I)/q whose
coefficients d[k][i, j] satisfy a three-term recurrence solved by
q-binomial times the ballot-difference kernel M.  Each level d[k] is one
polynomial too, with d[k][i, j] as its a^i b^j part, and the recurrence
moves each of its terms to the cells that term feeds.  That route sums
monomials in at and y bt, so it works in the shifted basis and leaves it
through polyring.from_shifted; the matrices above expand at and bt in a, b
and q.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import factorial

from .paths import StepWeights, motzkin_sum
from .polyring import (
    ALPHA_TILDE,
    BETA_TILDE,
    MPoly,
    ONE,
    Y,
    ZERO,
    exact_div_pow_one_minus_q,
    from_shifted,
    monomial,
    slot_bytes,
    unpack,
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


def zn_matrix(N: int) -> MPoly:
    """Partition function as <W| (yD + E)^N |V> on the explicit matrices."""
    if N < 0:
        raise ValueError("N must be >= 0")
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


def normal_order(N: int) -> MPoly:
    """Z(N) as the normal form of (yD + E)^N: sum c[N][i, j] a^i b^j.

    Each c[N][i, j] is computed over the free algebra by right
    multiplication with yD + E, in the packed layout of the module
    docstring, and read back one y row at a time, each up to its top q
    only (most of the (N+1) W slots of a flat read would be empty), as the
    a^i b^j part of the result.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    nb, W = slot_bytes(factorial(N + 1)), N * N // 4 + 2  # bytes a slot, slots a y row
    S = 8 * nb
    rows = [[1]]  # rows[i][j] = c[n][i, j], packed
    for _ in range(N):
        out, carry = [], []
        for row in rows:
            # row (yD + E) = E e + d for polynomials e, d in D, by Horner from
            # the top j: if H (yD + E) = E e + d, then by D E = E (qD + 1) + D
            # (c + D H)(yD + E) = E (c + (qD + 1) e) + D (yc + e + d); d[0] = 0
            e, d = [row[-1]], [0, row[-1] << S * W]
            for c in row[-2::-1]:
                d = [0, (c << S * W) + e[0], *(a + b for a, b in zip(e[1:], d[1:])), d[-1]]
                e = [c + e[0], *(a + (b << S) for a, b in zip(e[1:], e)), e[-1] << S]
            out.append([a + b for a, b in zip_longest(carry, d, fillvalue=0)])
            carry = e
        rows = [*out, carry]
    row_bits = S * W
    mask = (1 << row_bits) - 1
    terms = {}
    for i, row in enumerate(rows):
        for j, packed in enumerate(row):
            ey = 0
            while packed:
                for eq, c in enumerate(unpack(packed & mask, nb)):
                    if c:
                        terms[ey, eq, i, j] = c
                packed >>= row_bits
                ey += 1
    return MPoly._raw(terms)


zn_normal = normal_order  # the normal route: the normal form, read as a^i b^j, is Z(N)


# ---------------------------------------------------------------------------
# Hatted operators
# ---------------------------------------------------------------------------


def _hatted_step(prev: MPoly) -> MPoly:
    # each term of d[m] at cell (i, j) moves to (i, j+1), to (i+1, j) times
    # q^j, and for j >= 1 to (i, j-1) times y(1 - q^j)
    out: dict = {}
    get = out.get
    for (ey, eq, i, j), c in prev.items():
        moves = [((ey, eq, i, j + 1), c), ((ey, eq + j, i + 1, j), c)]
        if j:
            moves += [((ey + 1, eq, i, j - 1), c), ((ey + 1, eq + j, i, j - 1), -c)]
        for e, v in moves:
            out[e] = get(e, 0) + v
    return MPoly(out)


@lru_cache(maxsize=None)
def _hatted_d(m: int) -> MPoly:
    # d[m] from the cached d[m-1]: hatted_coeffs asks in increasing m, so one level deep
    return ONE if m == 0 else _hatted_step(_hatted_d(m - 1))


def hatted_coeffs(k: int) -> list[MPoly]:
    """[d[0], ..., d[k]], each level d[m] = sum d[m][i, j] a^i b^j by the
    recurrence d[m+1][i,j] = d[m][i,j-1] + q^j d[m][i-1,j]
    + y(1 - q^(j+1)) d[m][i,j+1] from d[0] = 1, each built once per
    process from d[m-1]."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return [_hatted_d(m) for m in range(k + 1)]


def hatted_closed_form(k: int, i: int, j: int) -> MPoly:
    """Closed form [i+j, i]_q * M((k-i-j)/2, k); zero when k-i-j is odd."""
    if (k - i - j) % 2:
        return ZERO
    return q_binomial(i + j, i) * touchard_M((k - i - j) // 2, k)


def zn_hatted(N: int) -> MPoly:
    """Partition function through the shifted-operator normal form.

    (1-q)^N Z equals sum over k of C(N,k) (1+y)^(N-k) (-1)^k times the
    (0,0) expectation of (qy Dh + q Eh)^k, and that expectation expands as
    sum d[k][i,j] (-at)^i (-y bt)^j; the parity of d makes all signs cancel.
    With at and bt held in the a and b slots, d[k](at, y bt) is d[k] with
    each term's b exponent added to its y exponent, and from_shifted
    expands the sum and divides it by (1-q)^N.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    acc = ZERO
    one_plus_y_pow = [ONE]
    for _ in range(N):
        one_plus_y_pow.append(one_plus_y_pow[-1] * (ONE + Y))
    for k, d in enumerate(hatted_coeffs(N)):
        inner = MPoly._raw({(ey + eb, eq, ea, eb): c for (ey, eq, ea, eb), c in d.items()})
        acc = acc + binomial(N, k) * one_plus_y_pow[N - k] * inner
    return from_shifted(acc, N)
