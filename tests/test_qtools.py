from fractions import Fraction
from itertools import product

from pasep.polyring import A, B, ONE, Q, Y, ZERO, monomial, parse_poly, substitute
from pasep.qtools import (
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


def test_q_int():
    assert q_int(0) == ZERO
    assert q_int(2) == ONE + Q
    for k in range(21):
        assert substitute(q_int(k), "q", ONE) == k * ONE


def test_q_binomial_frozen():
    assert q_binomial(5, 0) == ONE
    # oracle: the product formula (1-q^3)(1-q^4) / ((1-q)(1-q^2)) expanded
    assert q_binomial(4, 2) == parse_poly("q^4 + q^3 + 2*q^2 + q + 1")


def test_q_binomial_specializes_to_binomial():
    for n in range(13):
        for k in range(n + 1):
            assert substitute(q_binomial(n, k), "q", ONE) == binomial(n, k) * ONE


def test_q_binomial_symmetry():
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)


def test_q_pochhammer():
    assert q_pochhammer_eval(3, 1, 2, 1, 0) == (1, 1)
    assert q_pochhammer_eval(1, 1, 5, 7, 3)[0] == 0
    # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6), as the pair (1 * 5, 2^2 * 3)
    assert q_pochhammer_eval(1, 2, 1, 3, 2) == (5, 12)
    assert Fraction(*q_pochhammer_eval(-3, 4, -2, 5, 3)) == (
        (1 - Fraction(-3, 4)) * (1 - Fraction(-3, 4) * Fraction(-2, 5)) * (1 - Fraction(-3, 4) * Fraction(4, 25))
    )


def test_binomial_conventions():
    assert binomial(5, -1) == 0
    assert binomial(4, 2) == 6
    assert binomial(6, 7) == 0


def test_ballot_out_of_range_zeros():
    for n in range(8):
        for k in range(-3, 0):
            assert ballot(n, k) == 0
        for k in range(n + 2, n + 5):
            assert ballot(n, k) == 0
        for k in range(n + 2):
            assert ballot(n, k) == -ballot(n, n + 1 - k)
    assert ballot(4, 2) == 2
    assert ballot(-1, 0) == 0


def test_rogers_szego_at_q1_is_binomial_expansion():
    x, z = A + Y, 2 * ONE - B
    for n in range(7):
        assert substitute(rogers_szego(n, x, z), "q", ONE) == substitute((x + z) ** n, "q", ONE)
    assert rogers_szego(2, A, B) == A**2 + (ONE + Q) * A * B + B**2


def test_q_ballot_sum_is_its_docstring():
    def literal(n, weights):
        total = ZERO
        for i, w in enumerate(weights):
            total = total + (-1) ** i * Q ** (i * (i + 1) // 2) * q_binomial(n + i, i) * w
        return total

    for n in range(7):
        for length in range(5):
            ints = [3 * i - 3 for i in range(length)]
            polys = [(ONE + Y) ** i - i * A for i in range(length)]
            assert q_ballot_sum(n, ints) == literal(n, ints)
            assert q_ballot_sum(n, polys) == literal(n, polys)
    assert q_ballot_sum(0, []) == ZERO


def _brute_motzkin_prefixes(N, h):
    total = ZERO
    for steps in product((1, 0, -1), repeat=N):
        height = 0
        ok = True
        levels = downs = 0
        for s in steps:
            height += s
            if height < 0:
                ok = False
                break
            if s == 0:
                levels += 1
            elif s == -1:
                downs += 1
        if ok and height == h:
            total = total + (ONE + Y) ** levels * Y**downs
    return total


def test_motzkin_prefix_small():
    assert motzkin_prefix_gf(1, 1) == ONE
    assert motzkin_prefix_gf(1, 0) == ONE + Y


def test_motzkin_prefix_exhaustive():
    for N in range(8):
        for h in range(N + 1):
            assert motzkin_prefix_gf(N, h) == _brute_motzkin_prefixes(N, h), (N, h)


def test_touchard_M():
    for k in range(9):
        assert touchard_M(0, k) == ONE
    assert touchard_M(1, 2) == Y * (ONE - Q)
    assert touchard_M(-1, 5) == ZERO


def test_touchard_M_recurrence():
    for k in range(11):
        for n in range(1, k + 2):
            if (k - n + 1) % 2:
                continue
            lhs = touchard_M((k - n + 1) // 2, k) + Y * (ONE - monomial(1, eq=n + 1)) * touchard_M(
                (k - n - 1) // 2, k
            )
            assert lhs == touchard_M((k - n + 1) // 2, k + 1), (k, n)
