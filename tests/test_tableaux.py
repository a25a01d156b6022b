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


def _oracle(rows, fill):
    """Whether (rows, fill) is a permutation tableau, cell by cell from the
    definition in the tableaux module docstring; cells are read only where
    the shape has them."""
    cells = [(i, j) for i, length in enumerate(rows) for j in range(length)]
    if any(fill[i][j] not in (0, 1) for i, j in cells):
        return False
    for j in range(rows[0] if rows else 0):
        if not any(fill[i][j] for i in range(len(rows)) if rows[i] > j):
            return False
    for i, j in cells:
        one_above = any(fill[k][j] for k in range(i))
        one_left = any(fill[i][k] for k in range(j))
        if fill[i][j] == 0 and one_above and one_left:
            return False
    return True


def _decreasing(max_rows, max_len):
    return (
        s
        for r in range(max_rows + 1)
        for s in itertools.product(range(max_len, -1, -1), repeat=r)
        if all(x >= y for x, y in zip(s, s[1:]))
    )


def _fillings_over(rows, values):
    cells = sum(rows)
    for flat in itertools.product(values, repeat=cells):
        it = iter(flat)
        yield tuple(tuple(next(it) for _ in range(length)) for length in rows)


def test_validator_accepts_exactly_the_definition():
    # every shape with at most 3 rows and 3 columns, every filling over {0, 1, 2}
    for rows in _decreasing(3, 3):
        for fill in _fillings_over(rows, (0, 1, 2)):
            try:
                PermutationTableau(rows, fill)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _oracle(rows, fill), (rows, fill)


def test_enumeration_and_stats_match_the_definition():
    # each size's tableaux are exactly the valid 0/1 fillings of its shapes,
    # once each, and their statistics are the definitions read cell by cell
    for size in range(6):
        want = {
            (rows, fill)
            for rows in _decreasing(size, size)
            if len(rows) + (rows[0] if rows else 0) == size
            for fill in _fillings_over(rows, (0, 1))
            if _oracle(rows, fill)
        }
        tableaux = list(enumerate_tableaux(size))
        got = [(t.rows, t.fill) for t in tableaux]
        assert len(got) == len(set(got)) and set(got) == want, size
        for t in tableaux:
            rows, fill = t.rows, t.fill
            col = lambda j: [fill[i][j] for i in range(len(rows)) if rows[i] > j]
            restricted = {
                i for i, length in enumerate(rows) for j in range(length)
                if fill[i][j] == 0 and any(col(j)[:i])
            }
            w = sum(sum(col(j)) - 1 for j in range(rows[0] if rows else 0))
            a = sum(fill[0]) if rows else 0
            st = tableau_stats(t)
            assert (st.a, st.b, st.r, st.w) == (a, len(rows) - len(restricted), len(rows), w)


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
