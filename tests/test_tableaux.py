import hashlib
import itertools
import json
import math
import tracemalloc

import pytest

from pasep import tableaux
from pasep.formulas import q_stirling2
from pasep.perms import zn_perm_wexcr
from pasep.polyring import A, B, MPoly, ONE, Y, ZERO, canonical_string, monomial, substitute
from pasep.qtools import rogers_szego
from pasep.tableaux import (
    PermutationTableau,
    _fulls,
    _shapes,
    enumerate_tableaux,
    tableau_stats,
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
        t = PermutationTableau((k,), (1,) * k)
        st = tableau_stats(t)
        assert (st.a, st.b, st.r, st.w) == (k, 1, 1, 0)


def _from_fill(rows, fill):
    """The tableau with these row lengths and 0/1 rows, through its JSON form."""
    return PermutationTableau.from_json(json.dumps({"rows": rows, "fill": fill}))


def test_invalid_tableaux_rejected():
    for rows, cols in [
        ((1,), (0,)),  # column without a 1
        ((1, 2), (3, 2)),  # not weakly decreasing
        ((2, -1), (1, 1)),  # negative row length
        ((2, 2), (3, 1)),  # restricted 0 with a 1 to its left: forbidden pattern
        ((1,), (2,)),  # a 1 below the end of its column
        ((2,), (1,)),  # fewer columns than the first row
    ]:
        with pytest.raises(ValueError):
            PermutationTableau(rows, cols)
        # the namedtuple constructors run the same checks
        with pytest.raises(ValueError):
            PermutationTableau._make((rows, cols))
        with pytest.raises(ValueError):
            PermutationTableau((1,), (1,))._replace(rows=rows, cols=cols)


def test_namedtuple_constructors_keep_the_type():
    t = PermutationTableau((2, 1), (3, 1))
    other = PermutationTableau((2,), (1, 1))
    for got in (PermutationTableau._make(t), t._replace(), other._replace(rows=(2, 1), cols=(3, 1))):
        assert type(got) is PermutationTableau and got == t


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
                _from_fill(rows, fill)
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
    t = _from_fill((2, 2), ((1, 1), (0, 0)))
    st = tableau_stats(t)
    assert st.b == 1  # second row is restricted
    assert st.a == 2 and st.w == 0


def test_size_two_gives_z1():
    assert canonical_string(zn_tableaux(1)) == "y*b + a"


def test_zn_matches_permutation_route():
    for N in range(6):
        assert zn_tableaux(N) == zn_perm_wexcr(N)


def _top_degree_slice(n):
    # the tableaux of size n+1 with a + b = n + 1 (an all-1 first row and no
    # restricted row, hence no 0 at all): the terms with ea + eb + 1 == n + 1
    z = zn_tableaux(n)
    return MPoly({e: c for e, c in z.items() if e[2] + e[3] + 1 == n + 1})


def test_top_degree_frozen():
    assert _top_degree_slice(1) == monomial(1, ea=1) + Y * B
    expected2 = monomial(1, ea=2) + (ONE + monomial(1, eq=1)) * Y * monomial(1, ea=1, eb=1) + Y**2 * B**2
    assert _top_degree_slice(2) == expected2


def test_top_degree_through_6():
    # the slice is the q-binomial sum sum_k [n,k]_q a^k (y b)^(n-k)
    for n in range(7):
        assert _top_degree_slice(n) == rogers_szego(n, A, Y * B), n


def test_json_round_trip():
    for t in enumerate_tableaux(4):
        assert PermutationTableau.from_json(t.to_json()) == t
    # a fill off its shape, or with an entry other than 0 and 1
    for rows, fill in [((2,), [[1]]), ((1, 1), [[1]]), ((1,), [[2]]), ((1,), [[-1]])]:
        with pytest.raises(ValueError):
            _from_fill(rows, fill)
    # JSON of the wrong form
    for s in ["{}", "[1]", '{"rows": 3, "fill": []}']:
        with pytest.raises(ValueError):
            PermutationTableau.from_json(s)


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


def _assert_validated(stream):
    # what the generator no longer runs: the public constructor's checks
    for t in stream:
        assert type(t) is PermutationTableau
        assert PermutationTableau(t.rows, t.cols) == t


def test_enumerated_tableaux_pass_the_constructor():
    for size in range(9):
        _assert_validated(enumerate_tableaux(size))


def test_the_constructor_check_catches_an_unfiltered_generator(monkeypatch):
    # the generator with its 0-pattern filter switched off emits a tableau
    # that the constructor rejects, so the test above can fail
    with monkeypatch.context() as m:
        m.setattr(tableaux, "_restricted", lambda mask, full: 0)
        planted = list(enumerate_tableaux(4))
    assert len(planted) > math.factorial(4)
    with pytest.raises(ValueError, match="0-pattern"):
        _assert_validated(planted)


# SHA-256 of the stream for sizes 0..8, one repr((size, rows, cols)) line
# per tableau, taken before the generator stopped validating
STREAM_SHA256 = "350f4747a34604623a1fe2029227915204e7f7948ba62d49c44f94ee5521ce8b"


def test_stream_is_pinned():
    h = hashlib.sha256()
    for size in range(9):
        for t in enumerate_tableaux(size):
            h.update(repr((size, t.rows, t.cols)).encode() + b"\n")
    assert h.hexdigest() == STREAM_SHA256


def test_enumeration_streams_in_little_memory():
    # no shape's fillings are listed whole: the last column is streamed
    for shape in itertools.chain.from_iterable(_shapes(r, 8 - r) for r in range(9)):
        _fulls(shape)
    tracemalloc.start()
    try:
        for _ in enumerate_tableaux(8):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
