import itertools
import math

import pytest

from pasep.formulas import q_stirling2
from pasep.perms import zn_perm_wexcr
from pasep.polyring import B, ONE, Y, ZERO, canonical_string, monomial, substitute
from pasep.tableaux import (
    PermutationTableau,
    _shapes,
    enumerate_tableaux,
    tableau_stats,
    top_degree_check,
    zn_tableaux,
)


def test_size_8_aggregate_pass():
    # one enumeration pass per size: counts are n!, the superfluous-1
    # distribution matches the q-degrees of the partition function at
    # a=b=y=1, and the no-restricted-row slice is Carlitz q-Stirling
    for size in range(1, 9):
        count = 0
        wdist = ZERO
        carlitz: dict[int, object] = {}
        for t in enumerate_tableaux(size):
            count += 1
            st = tableau_stats(t)
            wdist = wdist + monomial(1, eq=st.w)
            if st.b == st.r:
                carlitz[st.r] = carlitz.get(st.r, ZERO) + monomial(1, eq=st.w)
        assert count == math.factorial(size)
        z = zn_tableaux(size - 1)
        z = substitute(substitute(substitute(z, "a", ONE), "b", ONE), "y", ONE)
        assert wdist == z
        for r, poly in carlitz.items():
            assert poly == q_stirling2(size, r), (size, r)


def test_single_all_ones_row():
    for k in range(1, 5):
        t = PermutationTableau((k,), ((1,) * k,))
        st = tableau_stats(t)
        assert (st.a, st.b, st.r, st.w) == (k, 1, 1, 0)


def test_invalid_tableaux_rejected():
    with pytest.raises(ValueError):
        PermutationTableau((1,), ((0,),))  # column without a 1
    with pytest.raises(ValueError):
        PermutationTableau((1, 2), ((1,), (1, 1)))  # not weakly decreasing
    # restricted 0 with a 1 to its left: forbidden pattern
    with pytest.raises(ValueError):
        PermutationTableau((2, 2), ((1, 1), (1, 0)))


def test_valid_restricted_zero():
    # 0s below 1s are fine when everything to their left is 0
    t = PermutationTableau((2, 2), ((1, 1), (0, 0)))
    st = tableau_stats(t)
    assert st.b == 1  # second row is restricted
    assert st.a == 2 and st.w == 0


def test_size_two_gives_z1():
    assert canonical_string(zn_tableaux(1)) == "y*b + a"


def test_zn_matches_permutation_route():
    for N in range(6):
        assert zn_tableaux(N) == zn_perm_wexcr(N)


def test_top_degree_frozen():
    assert top_degree_check(1) == monomial(1, ea=1) + Y * B
    expected2 = monomial(1, ea=2) + (ONE + monomial(1, eq=1)) * Y * monomial(1, ea=1, eb=1) + Y**2 * B**2
    assert top_degree_check(2) == expected2


def test_top_degree_through_6():
    for n in range(7):
        top_degree_check(n)  # raises on mismatch


def test_json_round_trip():
    for t in enumerate_tableaux(4):
        assert PermutationTableau.from_json(t.to_json()) == t


def test_shapes_order():
    # weakly decreasing r-tuples with first part c, in descending lex order;
    # the one shape with no rows has c = 0
    for r in range(6):
        for c in range(6):
            want = sorted(
                (
                    s
                    for s in itertools.product(range(c + 1), repeat=r)
                    if (s[0] == c if s else c == 0) and all(x >= y for x, y in zip(s, s[1:]))
                ),
                reverse=True,
            )
            assert list(_shapes(r, c)) == want, (r, c)
