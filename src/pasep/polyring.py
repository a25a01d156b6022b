"""Exact sparse polynomial arithmetic in the variables y, q, a, b.

Everything in this package is computed in the ring Z[y, q, a, b] with
arbitrary-precision integer coefficients.  The variables a and b stand for
the reciprocal boundary rates 1/alpha and 1/beta of the open exclusion
process, which makes every partition function value a true polynomial.
The shifted boundary combinations

    alpha_tilde = (1 - q) * a - 1        beta_tilde = (1 - q) * b - 1

are provided expanded in a, b and q (ALPHA_TILDE, BETA_TILDE).  A route
whose sum is made of monomials in at and bt stays in the shifted basis
instead, Z[y, q, at, bt] with at and bt in the a and b exponent slots, and
leaves it once through from_shifted(p, N), which returns p / (1 - q)^N in
a and b.  That saves expanding every power of at and bt in a, b and q
before the sum.  Routes whose factors mix at, bt and q^h (the transfer
operators) use the expanded forms.  Division by powers of (1 - q) is the
single place where denominators get discharged, and it insists on a zero
remainder so that a transcription error in any formula fails loudly
instead of producing a wrong polynomial.

Representation: a polynomial maps exponent tuples (ey, eq, ea, eb) to
nonzero coefficients; the zero polynomial is the empty mapping.  Values are
immutable after construction and every operation is a pure function, so
everything here is safe for unrestricted concurrent use.

The ring operations keep the zero-free invariant at the least cost per
term.  __mul__ runs the operand with fewer terms in the outer loop and the
longer one inside, unpacks each exponent tuple once, in the for target,
and accumulates through the bound dict.get of its result.  It drops zero
coefficients once, at the end, and never when a factor is a monomial,
whose product cannot cancel.  __add__ copies the longer operand, adds the
shorter into it the same way, and deletes only the sums that came out 0.
substitute multiplies its groups of terms through __mul__ and sums them
through __add__; only its fold of integer values keeps a loop of its own.
Dict order is not part of a value: == compares mappings, and
canonical_string sorts.

The two exact conversions work on denser layouts, so that their inner loops
run in C:

- exact_div_pow_one_minus_q holds each (ey, ea, eb) group as a dense list
  of q-coefficients and divides it by (1 - q) n times, each time by one
  itertools.accumulate pass (the prefix sums).  The last prefix sum is the
  remainder of that pass; NotDivisible is raised unless it is 0.  A
  nonzero group of q-degree d has a nonzero remainder by pass d + 1 at
  the latest, so a row is never emptied.
- from_shifted packs the q-coefficients of each (ey, at, bt) cell into one
  integer, the cell's value at q = 2^S (Kronecker substitution, below).
  Both Taylor shifts are then integer linear combinations of whole cells:
  d(d+1)/2 big-int subtractions per row of degree d, which are exact
  whatever the slots hold on the way.  Each cell is read back once.  With
  M the largest input |coefficient| and da, db the at- and bt-degrees,
  the coefficient of u^k v^l is a signed sum of input coefficients times
  binom(i, k) binom(j, l), so |c| <= M binom(da+1, k+1) binom(db+1, l+1)
  <= M 2^(da+db), the bound handed to slot_bytes.  The alternating input
  (-1)^(i+j) M attains the middle binomials.  from_shifted then groups
  the terms by m = k + l, raises NotDivisible for any m above N, and hands
  each group to exact_div_pow_one_minus_q, which raises on any remainder.

Packed integers.  A sequence of integers c_0, c_1, ... is packed as the one
int sum c_i 2^(S i), with S = 8 nb bits a slot.  Besides from_shifted,
ansatz.normal_order and perms.alternating_E hold their coefficients so, and
slot_bytes and unpack are the one codec of all three.  slot_bytes(bound)
is the least nb with every |c| <= bound below 2^(S-1).  Under that bound
unpack(packed, nb) reads the slots back exactly, whatever their signs:
adding the bias 2^(S-1) to every slot makes each one a value in [0, 2^S),
so no slot borrows from or carries into its neighbour, and flipping each
slot's top bit back leaves c_i as an S-bit two's complement, read from the
bytes.  The highest nonzero slot t is the bit length of |packed|
floor-divided by S: the lower slots add up to less than 2^(S t - 1) in
absolute value, so 2^(S t - 1) < |packed| < 2^(S (t+1) - 1).
"""

from __future__ import annotations

import re
from itertools import accumulate, zip_longest
from operator import itemgetter
from typing import Iterator, Mapping

VARS = ("y", "q", "a", "b")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int, int]


class NotDivisible(ArithmeticError):
    """Exact division left a nonzero remainder; signals a caller bug."""


class DegreeTooHigh(ValueError):
    """y-degree exceeds the requested reflection degree."""


class MPoly:
    """Sparse exact polynomial in y, q, a, b over the integers."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        self._t = {exp: c for exp, c in terms.items() if c} if terms else {}

    @classmethod
    def _raw(cls, t: dict[Exponent, int]) -> "MPoly":
        p = cls.__new__(cls)
        p._t = t
        return p

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, int]]:
        return iter(self._t.items())

    def num_terms(self) -> int:
        return len(self._t)

    def deg(self, var: str) -> int:
        """Degree in one variable; 0 for the zero polynomial."""
        idx = _VAR_INDEX[var]
        return max((e[idx] for e in self._t), default=0)

    def constant_value(self) -> int:
        """The integer value of a constant polynomial."""
        if not self._t:
            return 0
        if set(self._t) != {(0, 0, 0, 0)}:
            raise ValueError("polynomial is not constant")
        return self._t[(0, 0, 0, 0)]

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = as_poly(other)
        long, short = self._t, other._t
        if len(long) < len(short):
            long, short = short, long
        t = dict(long)
        get = t.get
        zeros = []
        for e, c in short.items():
            nc = get(e, 0) + c
            t[e] = nc
            if not nc:
                zeros.append(e)
        for e in zeros:
            del t[e]
        return MPoly._raw(t)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._raw({e: -c for e, c in self._t.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "MPoly":
        return as_poly(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        other = as_poly(other)
        short, long = self._t, other._t
        if len(short) > len(long):
            short, long = long, short
        out: dict[Exponent, int] = {}
        get = out.get
        for (y1, q1, a1, b1), c1 in short.items():
            for (y2, q2, a2, b2), c2 in long.items():
                e = (y1 + y2, q1 + q2, a1 + a2, b1 + b2)
                out[e] = get(e, 0) + c1 * c2
        if len(short) > 1 and 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return MPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = as_poly(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._t == other._t

    __hash__ = None  # mutable-free but identity on purpose: compare by ==

    def __bool__(self) -> bool:
        return bool(self._t)

    def __repr__(self) -> str:
        return f"MPoly({canonical_string(self)!r})"


def as_poly(x) -> MPoly:
    if isinstance(x, MPoly):
        return x
    if isinstance(x, int):
        return MPoly._raw({(0, 0, 0, 0): x}) if x else MPoly._raw({})
    raise TypeError(f"cannot coerce {type(x).__name__} to MPoly")


def monomial(coeff: int, ey: int = 0, eq: int = 0, ea: int = 0, eb: int = 0) -> MPoly:
    if not coeff:
        return ZERO
    return MPoly._raw({(ey, eq, ea, eb): coeff})


ZERO = MPoly()
ONE = monomial(1)
Y = monomial(1, ey=1)
Q = monomial(1, eq=1)
A = monomial(1, ea=1)
B = monomial(1, eb=1)

# Shifted boundary parameters; see module docstring.
ALPHA_TILDE = (ONE - Q) * A - ONE
BETA_TILDE = (ONE - Q) * B - ONE


def substitute(p: MPoly, var: str, value) -> MPoly:
    """Replace every occurrence of `var` in p by `value`, expanded.

    An integer value, or a constant polynomial, folds into each coefficient
    as c * value^e, with 0^0 = 1, so a term whose factor is 0 drops.  Any
    other value multiplies, through MPoly.__mul__, each group of terms with
    the same exponent e of var by value^e, each power built once."""
    idx = _VAR_INDEX[var]
    value = as_poly(value)
    if value._t.keys() <= {(0, 0, 0, 0)}:
        v = value._t.get((0, 0, 0, 0), 0)
        folded: dict[Exponent, int] = {}
        for e, c in p._t.items():
            k = e[idx]
            if k and not v:
                continue
            rest = (*e[:idx], 0, *e[idx + 1:])
            folded[rest] = folded.get(rest, 0) + c * v**k
        return MPoly(folded)
    groups: dict[int, dict[Exponent, int]] = {}
    for e, c in p._t.items():
        groups.setdefault(e[idx], {})[(*e[:idx], 0, *e[idx + 1:])] = c
    out = ZERO
    power = ONE
    prev = 0
    for k in sorted(groups):
        for _ in range(k - prev):
            power = power * value
        prev = k
        out = out + MPoly._raw(groups[k]) * power
    return out


def coeff_of(p: MPoly, var: str, k: int) -> MPoly:
    """The coefficient of var**k in p, as a polynomial in the other variables."""
    idx = _VAR_INDEX[var]
    out: dict[Exponent, int] = {}
    for e, c in p._t.items():
        if e[idx] == k:
            rest = list(e)
            rest[idx] = 0
            out[tuple(rest)] = c
    return MPoly._raw(out)


def exact_div_pow_one_minus_q(p: MPoly, n: int) -> MPoly:
    """Return r with r * (1-q)**n == p, raising NotDivisible otherwise.

    Synthetic division in q, on each (ey, ea, eb) group as a dense list of
    q-coefficients: if g = (1-q) r then the coefficients of r are the
    prefix sums of those of g, and the total sum is the remainder.
    """
    if n < 0:
        raise ValueError("negative divisor power")
    if not n:
        return p
    groups: dict[tuple[int, int, int], dict[int, int]] = {}
    for (ey, eq, ea, eb), c in p._t.items():
        groups.setdefault((ey, ea, eb), {})[eq] = c
    out: dict[Exponent, int] = {}
    for (ey, ea, eb), qcoeffs in groups.items():
        row = [0] * (max(qcoeffs) + 1)
        for k, c in qcoeffs.items():
            row[k] = c
        for _ in range(n):
            row = list(accumulate(row))
            if row.pop():
                raise NotDivisible("nonzero remainder after division by (1-q)")
        for k, c in enumerate(row):
            if c:
                out[(ey, k, ea, eb)] = c
    return MPoly._raw(out)


def slot_bytes(bound: int) -> int:
    """Bytes a packed slot takes so that every |c| <= bound reads back."""
    return bound.bit_length() // 8 + 1


def unpack(packed: int, nb: int) -> list[int]:
    """The signed nb-byte slots of packed, lowest first, up to the highest
    nonzero one; [] for 0.  Exact when every slot is below 2^(8 nb - 1) in
    absolute value (see the module docstring)."""
    if not packed:
        return []
    S = 8 * nb
    n = abs(packed).bit_length() // S + 1
    bias = int.from_bytes((1 << (S - 1)).to_bytes(nb, "little") * n, "little")
    raw = ((packed + bias) ^ bias).to_bytes(n * nb, "little")
    return [int.from_bytes(raw[i : i + nb], "little", signed=True) for i in range(0, n * nb, nb)]


def _taylor_shift(c: list[int]) -> list[int]:
    """In place, and returned: trailing zeros dropped, the coefficients
    c_0..c_d of x^k become those of sum c_k (x - 1)^k, by d(d+1)/2
    repeated subtractions."""
    while c and not c[-1]:
        c.pop()
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] -= c[j + 1]
    return c


def from_shifted(p: MPoly, N: int) -> MPoly:
    """p(at, bt) / (1-q)^N in a and b, for p held in the shifted basis.

    The a and b exponent slots of p carry at = (1-q)a - 1 and
    bt = (1-q)b - 1.  The Taylor shift at -> u - 1, bt -> v - 1 rewrites p
    in u = (1-q)a and v = (1-q)b, and u^k v^l = (1-q)^(k+l) a^k b^l, so
    the terms of total degree m = k + l are divided by (1-q)^(N-m) alone.
    Both shifts run on q-packed cells (see the module docstring).  Raises
    NotDivisible when some m exceeds N or a division leaves a remainder.
    """
    if N < 0:
        raise ValueError("negative divisor power")
    t = p._t
    if not t:
        return ZERO
    da = max(map(itemgetter(2), t))
    db = max(map(itemgetter(3), t))
    nb = slot_bytes(max(map(abs, t.values())) << (da + db))
    S = 8 * nb
    cells: dict[tuple[int, int, int], int] = {}  # (ey, at, bt) -> value at q = 2^S
    for (ey, eq, ea, eb), c in t.items():
        key = (ey, ea, eb)
        cells[key] = cells.get(key, 0) + (c << (S * eq))
    by_degree: dict[int, dict[Exponent, int]] = {}
    for ey in {key[0] for key in cells}:
        # at -> u - 1 along each bt row, then bt -> v - 1 along each u column
        rows = [
            _taylor_shift([cells.get((ey, k, l), 0) for k in range(da + 1)]) for l in range(db + 1)
        ]
        for k, col in enumerate(zip_longest(*rows, fillvalue=0)):
            for l, cell in enumerate(_taylor_shift(list(col))):
                if not cell:
                    continue
                group = by_degree.setdefault(k + l, {})
                for eq, c in enumerate(unpack(cell, nb)):
                    if c:
                        group[(ey, eq, k, l)] = c
    out: dict[Exponent, int] = {}
    for m, group in by_degree.items():
        if m > N:
            raise NotDivisible(f"shifted degree {m} exceeds {N}")
        out.update(exact_div_pow_one_minus_q(MPoly._raw(group), N - m)._t)
    return MPoly._raw(out)


def exact_div_var(p: MPoly, var: str, n: int = 1) -> MPoly:
    """Exact division by var**n (every term must carry exponent >= n)."""
    idx = _VAR_INDEX[var]
    out: dict[Exponent, int] = {}
    for e, c in p._t.items():
        if e[idx] < n:
            raise NotDivisible(f"term with {var}-exponent {e[idx]} < {n}")
        rest = list(e)
        rest[idx] -= n
        out[tuple(rest)] = c
    return MPoly._raw(out)


def eval_rational(p: MPoly, a, b, y, q) -> Fraction:
    """Exact evaluation at a rational point, over one common denominator.

    Each coordinate x = n/d (d > 0) with top exponent t in p gives the
    integers n^e d^(t-e), for the exponents e of x that occur in p, so
    every term is an integer over the one denominator
    d_y^t_y d_q^t_q d_a^t_a d_b^t_b; the sum is taken in integers and
    reduced once.  0^0 = 1, as for Fraction.
    """
    from fractions import Fraction

    point = [Fraction(v) for v in (y, q, a, b)]
    if not p._t:
        return Fraction(0)
    tables = []
    den = 1
    for i, x in enumerate(point):
        present = {e[i] for e in p._t}
        top = max(present)
        n, d = x.numerator, x.denominator
        tables.append({e: n**e * d ** (top - e) for e in present})
        den *= d**top
    ty, tq, ta, tb = tables
    num = 0
    for (ey, eq, ea, eb), c in p._t.items():
        num += c * ty[ey] * tq[eq] * ta[ea] * tb[eb]
    return Fraction(num, den)


def _factor_table(name: str, top: int) -> list[str]:
    """The "*name^e" factor strings for e = 0..top, with "" at e = 0."""
    return ["", f"*{name}", *(f"*{name}^{e}" for e in range(2, top + 1))]


def canonical_string(p: MPoly) -> str:
    """Deterministic rendering, descending lexicographic in (ey, eq, ea, eb).

    Unit coefficients and unit exponents are elided, zero-exponent factors
    omitted; this string is the interchange format of the CLI and the golden
    tests, and parse_poly inverts it exactly.
    """
    t = p._t
    if not t:
        return "0"
    exps = sorted(t, reverse=True)
    ty, tq, ta, tb = (_factor_table(name, max(e[i] for e in exps)) for i, name in enumerate(VARS))
    parts = []
    for exp in exps:
        c = t[exp]
        ey, eq, ea, eb = exp
        body = ty[ey] + tq[eq] + ta[ea] + tb[eb]
        mag = -c if c < 0 else c
        if mag != 1:
            body = str(mag) + body
        elif body:
            body = body[1:]
        else:
            body = "1"
        if parts:
            parts.append((" + " if c > 0 else " - ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return "".join(parts)


def parse_poly(s: str) -> MPoly:
    """Inverse of canonical_string (also accepts non-canonical term order)."""
    s = s.strip()
    if s == "0":
        return ZERO
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    chunks = re.split(r" ([+-]) ", s)
    signed = [(sign, chunks[0])]
    for op, term in zip(chunks[1::2], chunks[2::2]):
        signed.append((1 if op == "+" else -1, term))
    terms: dict[Exponent, int] = {}
    for sg, body in signed:
        c = 1
        e = [0, 0, 0, 0]
        for factor in body.split("*"):
            if factor.isdigit():
                c = int(factor)
            else:
                name, _, pw = factor.partition("^")
                if name not in _VAR_INDEX:
                    raise ValueError(f"bad factor {factor!r}")
                e[_VAR_INDEX[name]] = int(pw) if pw else 1
        exp = tuple(e)
        terms[exp] = terms.get(exp, 0) + sg * c
    return MPoly(terms)


def y_reflect(p: MPoly, n: int) -> MPoly:
    """y**n * p(b, a, 1/y, q): swap a and b, send each y**k to y**(n-k).

    This realizes the particle-hole symmetry of the partition function; it
    is an involution whenever deg_y(p) <= n.
    """
    out: dict[Exponent, int] = {}
    for (ey, eq, ea, eb), c in p._t.items():
        if ey > n:
            raise DegreeTooHigh(f"y-degree {ey} exceeds {n}")
        out[(n - ey, eq, eb, ea)] = c
    return MPoly._raw(out)
