import random
from collections import Counter

import pytest

from pasep.formulas import q_tangent_secant
from pasep.perms import (
    _asc312_key,
    alternating_E,
    enumerate_permutations,
    p31_2,
    perm_string,
    stats,
    tilde,
    zn_perm_asc312,
    zn_perm_wexcr,
)
from pasep.polyring import MPoly, ONE, Q, canonical_string, substitute, y_reflect

from oracles import enumerate_alternating, inverse

GOLDEN_Z1 = "y*b + a"
GOLDEN_Z2 = "y^2*b^2 + y*q*a*b + y*a*b + y*a + y*b + a^2"


def test_enumerate_counts_and_order():
    assert list(enumerate_permutations(0)) == [()]
    perms3 = list(enumerate_permutations(3))
    assert len(perms3) == 6
    assert perms3[0] == (1, 2, 3) and perms3[-1] == (3, 2, 1)
    assert sum(1 for _ in enumerate_permutations(7)) == 5040


def test_stats_crossing_figure():
    st = stats((6, 7, 2, 5, 8, 1, 4, 9, 3))
    assert st.wex == 5 and st.cr == 7


def test_stats_pattern_figure():
    st = stats((4, 3, 7, 1, 2, 6, 5))
    assert st.asc == 4 and st.p31_2 == 3


def test_p31_2_matches_the_definition():
    # triples (i, i+1, j), i+1 < j, with sigma(i+1) < sigma(j) < sigma(i)
    for n in range(7):
        for sigma in enumerate_permutations(n):
            want = sum(
                1
                for i in range(n - 1)
                for j in range(i + 2, n)
                if sigma[i + 1] < sigma[j] < sigma[i]
            )
            assert p31_2(sigma) == stats(sigma).p31_2 == want


def test_asc312_key_matches_stats():
    # exhaustive up to 7 letters, then seeded random permutations up to 30
    rng = random.Random(26)
    sampled = [tuple(rng.sample(range(1, n + 1), n)) for n in range(8, 31) for _ in range(40)]
    for sigma in [*(s for n in range(1, 8) for s in enumerate_permutations(n)), *sampled]:
        st = stats(sigma)
        assert _asc312_key(sigma) == (st.asc - 1, st.p31_2, st.s - 1, st.t - 1), sigma


def test_stats_identity_permutation():
    # the identity has a single right-to-left maximum (the last position)
    # and every position is a right-to-left minimum
    n = 6
    st = stats(tuple(range(1, n + 1)))
    assert (st.wex, st.cr, st.asc, st.p31_2, st.s, st.t) == (n, 0, n, 0, 1, n)
    assert (st.u, st.v) == (0, n - 1)


def test_inverse_and_serialization():
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert perm_string((3, 1, 2)) == "312"
    assert perm_string(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"


def test_tilde_involution_and_stats():
    assert tilde((1, 2, 3)) == (1, 2, 3)
    for n in range(6):
        for sigma in enumerate_permutations(n):
            assert tilde(tilde(sigma)) == sigma
            st = stats(sigma)
            st_t = stats(tilde(sigma))
            assert (st.u, st.wex, st.v, st.cr) == (st_t.u_prime, st_t.wex, st_t.v, st_t.cr)


def test_wex_cr_count_sanity():
    # Z(n-1) at a=b=y=q=1 counts all of S_n
    for n in range(1, 7):
        total = sum(1 for _ in enumerate_permutations(n))
        z = zn_perm_wexcr(n - 1)
        allones = substitute(substitute(substitute(substitute(z, "y", ONE), "q", ONE), "a", ONE), "b", ONE)
        assert allones.constant_value() == total


def test_zn_golden():
    assert canonical_string(zn_perm_wexcr(1)) == GOLDEN_Z1
    assert canonical_string(zn_perm_wexcr(2)) == GOLDEN_Z2
    assert canonical_string(zn_perm_asc312(2)) == GOLDEN_Z2


def test_two_permutation_routes_agree():
    for N in range(6):
        assert zn_perm_wexcr(N) == zn_perm_asc312(N)


def test_zn_symmetry():
    for N in range(6):
        z = zn_perm_wexcr(N)
        assert y_reflect(z, N) == z


def test_alternating_counts():
    # tangent/secant numbers shifted to the n >= 1 anchor: |A_n| for n=1..7
    expected = [1, 1, 2, 5, 16, 61, 272]
    for n, cnt in enumerate(expected, start=1):
        assert sum(1 for _ in enumerate_alternating(n)) == cnt


def test_alternating_E_matches_the_definition():
    for n in range(1, 10):
        want = Counter((0, p31_2(sigma), 0, 0) for sigma in enumerate_alternating(n))
        assert alternating_E(n) == MPoly(want), n


def test_alternating_E_matches_the_closed_form_beyond_the_definition():
    for n in range(11, 14):
        assert alternating_E(n) == q_tangent_secant(n), n


def test_alternating_E_small():
    assert alternating_E(0) == ONE
    with pytest.raises(ValueError, match="n must be >= 0"):
        alternating_E(-1)
    assert alternating_E(1) == ONE
    assert alternating_E(2) == ONE
    assert alternating_E(3) == ONE + Q
