import ast
import random
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pasep import ansatz, formulas
from pasep.polyring import (
    A,
    B,
    MPoly,
    NotDivisible,
    DegreeTooHigh,
    ONE,
    Q,
    Y,
    ZERO,
    ALPHA_TILDE,
    BETA_TILDE,
    canonical_string,
    coeff_of,
    eval_rational,
    exact_div_pow_one_minus_q,
    exact_div_var,
    from_shifted,
    monomial,
    parse_poly,
    slot_bytes,
    substitute,
    unpack,
    y_reflect,
)

exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(MPoly)


def test_constructor_keeps_exactly_the_nonzero_terms():
    counts = Counter({(0, 1, 0, 0): 3, (1, 0, 0, 0): 0, (0, 0, 2, 0): -2, (2, 0, 0, 1): 0, (0, 0, 0, 1): 1})
    assert list(MPoly(counts).items()) == [((0, 1, 0, 0), 3), ((0, 0, 2, 0), -2), ((0, 0, 0, 1), 1)]
    assert MPoly() == MPoly({}) == MPoly(None) == ZERO


def test_difference_of_squares():
    assert (ONE - Q) * (ONE + Q) == ONE - Q**2


def test_additive_identity():
    p = A + 2 * Y * B
    assert p + ZERO == p


def test_binomial_square():
    assert (A + Y * B) ** 2 == A**2 + 2 * Y * A * B + Y**2 * B**2


def test_alpha_tilde_substitution():
    # carrying the shifted parameter as the variable a and substituting
    expr = A + Y * B
    got = substitute(substitute(expr, "a", ALPHA_TILDE), "b", BETA_TILDE)
    assert got == (ONE - Q) * A - ONE + Y * ((ONE - Q) * B - ONE)


def test_substitute_q_zero():
    p = ONE - Q**4
    assert substitute(p, "q", ZERO) == ONE


def test_substitute_y_one():
    assert substitute(Y * B + A, "y", ONE) == A + B


def _substitute_term_by_term(p, var, value):
    idx = "yqab".index(var)
    total = ZERO
    for e, c in p.items():
        rest = list(e)
        rest[idx] = 0
        total = total + monomial(c, *rest) * value ** e[idx]
    return total


@settings(max_examples=200, deadline=None)
@given(polys, st.sampled_from("yqab"), st.sampled_from([ZERO, ONE, -ONE, 3 * ONE, -Y, B, ONE - Q]))
@example(monomial(5, ey=2, eq=1) - Y, "q", ONE - Q)
def test_substitute_is_the_term_by_term_sum(p, var, value):
    assert substitute(p, var, value) == _substitute_term_by_term(p, var, value)


@pytest.mark.parametrize("seed", range(12))
def test_substitute_folds_integer_values_into_coefficients(seed):
    # an int or a constant value is folded into the coefficients; the
    # term-by-term expansion multiplies MPoly powers, with value ** 0 = ONE.
    # The nonzero constant term puts 0^0 = 1 into every case.
    rng = random.Random(seed)
    terms = {tuple(rng.randrange(4) for _ in range(4)): rng.randint(-9, 9) for _ in range(10)}
    p = MPoly({**terms, (0, 0, 0, 0): rng.randint(1, 9)})
    for var in "yqab":
        for v in (0, 1, -1, 2):
            want = _substitute_term_by_term(p, var, v * ONE)
            assert substitute(p, var, v) == substitute(p, var, v * ONE) == want, (var, v)


def test_substitute_zero_to_the_zero_is_one():
    assert substitute(ONE + A, "a", ZERO) == ONE
    assert substitute(3 * Q**2 + 2 * Y, "q", ZERO) == 2 * Y


def test_exact_div_constructed_quotient():
    p = (ONE - Q) ** 2 * (A + Y * B)
    assert exact_div_pow_one_minus_q(p, 2) == A + Y * B


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        exact_div_pow_one_minus_q(ONE + Q, 1)


# Reference conversions, one coefficient at a time: the fast ones in
# polyring must agree with these on every input, divisible or not.


def _div_one_minus_q(p: MPoly) -> MPoly:
    # if p = (1-q) r, the q-coefficients of r are the prefix sums of those
    # of p, and the total sum is the remainder
    groups = {}
    for (ey, eq, ea, eb), c in p.items():
        groups.setdefault((ey, ea, eb), {})[eq] = c
    out = {}
    for (ey, ea, eb), qcoeffs in groups.items():
        deg = max(qcoeffs)
        run = 0
        for k in range(deg + 1):
            run += qcoeffs.get(k, 0)
            if k < deg and run:
                out[(ey, k, ea, eb)] = run
        if run != 0:
            raise NotDivisible("nonzero remainder after division by (1-q)")
    return MPoly(out)


def _reference_div(p: MPoly, n: int) -> MPoly:
    for _ in range(n):
        p = _div_one_minus_q(p)
    return p


def _shift_down(t: dict, idx: int) -> dict:
    # Taylor shift x -> x - 1 in exponent slot idx: for each fixed rest of
    # the exponent, c_0..c_d of x^k become those of sum c_k (x - 1)^k
    groups = {}
    for e, c in t.items():
        k = e[idx]
        coeffs = groups.setdefault(e[:idx] + (0,) + e[idx + 1 :], [])
        coeffs.extend([0] * (k + 1 - len(coeffs)))
        coeffs[k] = c
    out = {}
    for rest, c in groups.items():
        d = len(c) - 1
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] -= c[j + 1]
        for k, ck in enumerate(c):
            if ck:
                out[rest[:idx] + (k,) + rest[idx + 1 :]] = ck
    return out


def _reference_from_shifted(p: MPoly, N: int) -> MPoly:
    by_degree = {}
    for e, c in _shift_down(_shift_down(dict(p.items()), 2), 3).items():
        by_degree.setdefault(e[2] + e[3], {})[e] = c
    out = {}
    for m, t in by_degree.items():
        if m > N:
            raise NotDivisible(f"shifted degree {m} exceeds {N}")
        out.update(dict(_reference_div(MPoly(t), N - m).items()))
    return MPoly(out)


def _same_outcome(fast, reference, *args):
    """fast(*args) == reference(*args), or both raise NotDivisible."""
    try:
        want = reference(*args)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            fast(*args)
    else:
        assert fast(*args) == want


big_polys = st.dictionaries(exponents, st.integers(-(2**200), 2**200), max_size=8).map(MPoly)


@settings(max_examples=150, deadline=None)
@given(big_polys, st.integers(0, 5))
@example(ZERO, 3)
@example(ONE - Q, 0)
def test_exact_div_matches_reference_on_multiples(p, k):
    multiple = p * (ONE - Q) ** k
    assert exact_div_pow_one_minus_q(multiple, k) == _reference_div(multiple, k) == p


@settings(max_examples=150, deadline=None)
@given(big_polys, st.integers(0, 6))
@example(ONE + Q, 1)
@example(Q**3 - Q**2 - Q + ONE, 3)  # (1-q)^2 (1+q): the third pass fails
def test_exact_div_matches_reference_on_any_input(p, n):
    _same_outcome(exact_div_pow_one_minus_q, _reference_div, p, n)


def test_exact_div_edge_cases():
    p = 3 * Y * Q**2 - A * B
    assert exact_div_pow_one_minus_q(p, 0) == p
    assert exact_div_pow_one_minus_q(ZERO, 4) == ZERO
    # n above the q-degree of a group: NotDivisible, not an IndexError
    for n in (3, 7):
        with pytest.raises(NotDivisible):
            exact_div_pow_one_minus_q((ONE - Q) ** 2 + Y, n)
    with pytest.raises(NotDivisible):
        exact_div_pow_one_minus_q(ONE, 1)


@settings(max_examples=150, deadline=None)
@given(big_polys, st.integers(0, 8))
@example(ZERO, 0)
@example(A**3 * B**2 - Q * A, 5)
def test_from_shifted_matches_reference(p, N):
    _same_outcome(from_shifted, _reference_from_shifted, p, N)


def _alternating_block(c: int, da: int, db: int) -> MPoly:
    # p_ij = (-1)^(i+j) c for all i <= da, j <= db: the shifted coefficient of
    # u^k v^l is then +-c binom(da+1, k+1) binom(db+1, l+1), the largest the
    # Taylor shifts can make it
    return MPoly({(0, 0, i, j): (-1) ** (i + j) * c for i in range(da + 1) for j in range(db + 1)})


# magnitudes just below eight consecutive powers of two, so that the slot
# width is as tight as it gets for each of them
TIGHT = [(-1) ** k * (2 ** (196 + k) - 1) for k in range(8)]


@pytest.mark.parametrize("c", [1, -1, 3, 2**200, -(2**200), *TIGHT])
@pytest.mark.parametrize("da, db", [(0, 0), (1, 0), (0, 8), (3, 5), (8, 8)])
def test_from_shifted_worst_case_slot_width(c, da, db):
    N = da + db
    p = _alternating_block(c, da, db) * (ONE - Q) ** N  # divisible for every shifted degree
    shifted = _shift_down(_shift_down(dict(p.items()), 2), 3)
    central = abs(c) * comb(N, N // 2) * comb(da + 1, (da + 1) // 2) * comb(db + 1, (db + 1) // 2)
    assert max(map(abs, shifted.values())) == central
    assert from_shifted(p, N) == _reference_from_shifted(p, N)


def _shifted_sum(monkeypatch, module, route, N):
    # the sum a route hands to from_shifted, built afresh
    seen = []
    monkeypatch.setattr(module, "from_shifted", lambda p, n: seen.append(p) or from_shifted(p, n))
    route(N)
    return seen[0]


# zn_hatted keeps no cache; zn_closed's is bypassed through __wrapped__
@pytest.mark.parametrize("module, route", [(formulas, formulas.zn_closed.__wrapped__), (ansatz, ansatz.zn_hatted)])
def test_from_shifted_matches_expanding_first(monkeypatch, module, route):
    for N in range(7):
        p = _shifted_sum(monkeypatch, module, route, N)
        expanded = substitute(substitute(p, "a", ALPHA_TILDE), "b", BETA_TILDE)
        assert from_shifted(p, N) == exact_div_pow_one_minus_q(expanded, N), N


def _into_shifted(z, N):
    # z = sum c_kl a^k b^l  ->  sum c_kl (1-q)^(N-k-l) (at+1)^k (bt+1)^l
    acc = ZERO
    for (ey, eq, ea, eb), c in z.items():
        acc = acc + monomial(c, ey=ey, eq=eq) * (ONE - Q) ** (N - ea - eb) * (A + 1) ** ea * (B + 1) ** eb
    return acc


HAND_BUILT_Z = 3 * Y * Q**2 * A**2 * B - Q * B**3 + Y**2 + 5 * A - 2 * Y * Q * A * B


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 2))
@example(HAND_BUILT_Z, 0)
@example(HAND_BUILT_Z, 2)
def test_from_shifted_inverts(z, extra):
    N = max((ea + eb for (_, _, ea, eb), _ in z.items()), default=0) + extra
    assert from_shifted(_into_shifted(z, N), N) == z


def test_from_shifted_rejects():
    with pytest.raises(ValueError):
        from_shifted(ONE, -1)
    with pytest.raises(NotDivisible):
        from_shifted(A * B, 1)  # shifted degree 2 > N = 1
    with pytest.raises(NotDivisible):
        from_shifted(A, 1)  # ((1-q)a - 1) / (1-q)


# The packed-integer codec: signed slots within the bound read back exactly,
# and no other module reads packed slots on its own.


def test_slot_bytes_at_the_byte_boundaries():
    assert [slot_bytes(b) for b in (0, 1, 127, 128, 2**15 - 1, 2**15, 2**64)] == [1, 1, 1, 2, 2, 3, 9]


@st.composite
def bounded_slots(draw):
    bound = draw(st.sampled_from([2**k - 1 for k in range(1, 80)] + [2**k for k in range(80)]))
    return bound, draw(st.lists(st.integers(-bound, bound), max_size=12))


@settings(max_examples=300, deadline=None)
@given(bounded_slots())
@example((2**7 - 1, [2**7 - 1, -(2**7 - 1)]))  # a negative top slot, nb = 1
@example((2**7, [-(2**7), 0, 2**7, -(2**7)]))  # the bound that needs nb = 2
@example((2**16 - 1, [0, 0, 1, -(2**16 - 1)]))
@example((5, [0, 0, 0]))  # all zero: no slots
@example((1, [-1]))
def test_unpack_round_trip(case):
    bound, coeffs = case
    nb = slot_bytes(bound)
    packed = sum(c << (8 * nb * i) for i, c in enumerate(coeffs))
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    assert unpack(packed, nb) == coeffs


def test_unpack_zero_is_no_slots():
    assert unpack(0, 1) == unpack(0, 7) == []


def test_only_polyring_reads_packed_slots():
    calls = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "pasep").glob("*.py")):
        calls[path.stem] = {
            node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("to_bytes", "from_bytes")
        }
    assert calls.pop("polyring") == {"to_bytes", "from_bytes"}  # the scan sees the codec
    assert not any(calls.values()), calls


def test_exact_div_var():
    assert exact_div_var(Y**2 * A, "y", 2) == A
    with pytest.raises(NotDivisible):
        exact_div_var(Y + ONE, "y", 1)


def test_eval_rational():
    assert eval_rational(Y * B + A, a=1, b=1, y=1, q=0) == 2
    qb42 = parse_poly("q^4 + q^3 + 2*q^2 + q + 1")
    assert eval_rational(qb42, a=1, b=1, y=1, q=1) == 6
    assert eval_rational(A * B, a=Fraction(1, 2), b=Fraction(2, 3), y=0, q=0) == Fraction(1, 3)


def _term_by_term(p, a, b, y, q):
    a, b, y, q = Fraction(a), Fraction(b), Fraction(y), Fraction(q)
    total = Fraction(0)
    for (ey, eq, ea, eb), c in p.items():
        total += c * y**ey * q**eq * a**ea * b**eb
    return total


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(polys, rationals, rationals, rationals, rationals)
@example(ZERO, Fraction(1, 2), 3, 0, -1)
@example(ONE + A, 2, 3, 0, 5)  # y = 0 against terms of y-degree 0: 0^0 = 1
@example(3 * Y**2 - Y + 7, 0, 0, 0, 0)
@example(Q**3 - 2 * A * B, Fraction(-2, 3), Fraction(-1, 5), Fraction(-3, 2), Fraction(-4, 7))
@example(monomial(-3, ey=40, eb=2) + Y, Fraction(1, 2), Fraction(-2, 3), Fraction(1, 3), 0)
def test_eval_rational_is_the_term_by_term_sum(p, a, b, y, q):
    got = eval_rational(p, a=a, b=b, y=y, q=q)
    assert isinstance(got, Fraction)
    assert got == _term_by_term(p, a, b, y, q)


def test_canonical_strings():
    assert canonical_string(ZERO) == "0"
    assert canonical_string(ONE) == "1"
    assert canonical_string(Y * B + A) == "y*b + a"
    assert canonical_string(A - 2 * Q) == "-2*q + a"


def test_coeff_of():
    p = Y**2 * A + Y * B + A
    assert coeff_of(p, "y", 1) == B
    assert coeff_of(p, "y", 0) == A


def test_y_reflect_examples():
    assert y_reflect(Y * B + A, 1) == Y * B + A
    assert y_reflect(A**2, 2) == Y**2 * B**2
    with pytest.raises(DegreeTooHigh):
        y_reflect(Y**3, 2)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p + r == r + p
    assert (p * r) * s == p * (r * s)
    assert p * r == r * p
    assert p * (r + s) == p * r + p * s


@settings(max_examples=80, deadline=None)
@given(polys, st.integers(0, 4))
def test_exact_div_round_trip(p, n):
    assert exact_div_pow_one_minus_q(p * (ONE - Q) ** n, n) == p


@settings(max_examples=150, deadline=None)
@given(polys)
def test_canonical_parse_round_trip(p):
    assert parse_poly(canonical_string(p)) == p


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(0, 3))
def test_y_reflect_involution(p, extra):
    n = p.deg("y") + extra
    assert y_reflect(y_reflect(p, n), n) == p


@settings(max_examples=150, deadline=None)
@given(polys, polys, st.sampled_from("yqab"))
def test_results_store_no_zero_coefficient_or_negative_exponent(p, r, var):
    for result in (p + r, p - r, p * r, -p, substitute(p, var, r)):
        for exps, c in result.items():
            assert c != 0 and min(exps) >= 0, (exps, c)
