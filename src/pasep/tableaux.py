"""Permutation tableaux: generation, statistics, partition function route.

A permutation tableau is a left-justified 0/1 filling of a Young diagram
(empty rows allowed, empty columns not) such that

  * every column contains at least one 1,
  * every 0 either has only 0s above it in its column, or only 0s to its
    left in its row.

The size is the number of rows plus the number of columns; tableaux of size
n are equinumerous with permutations of n.  A 0 with a 1 somewhere above it
is restricted, a row containing a restricted 0 is restricted, and a 1 that
is not the topmost 1 of its column is superfluous.

enumerate_tableaux builds each filling column by column, every column a
bitmask of its rows, and yields a validated PermutationTableau.  The
validator and tableau_stats each walk the columns once, carrying the
column height and one flag per row.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import lt, ne
from typing import Iterator

from .polyring import MPoly, ZERO, Y, B, Exponent, monomial
from .qtools import q_binomial


@dataclass(frozen=True)
class TableauStats:
    a: int  # 1s in the first row
    b: int  # unrestricted rows
    r: int  # rows, zero-length rows included
    w: int  # superfluous 1s


@dataclass(frozen=True)
class PermutationTableau:
    rows: tuple[int, ...]
    fill: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # One pass over the columns, left to right: the height shrinks as
        # rows end, and `left` flags the rows with a 1 in an earlier column.
        # Within a column the "no 1" error comes first; otherwise the first
        # error met top-down is raised at the column's end.
        rows, fill = self.rows, self.fill
        if any(map(lt, rows, rows[1:])):
            raise ValueError("row lengths must be weakly decreasing")
        if len(fill) != len(rows) or any(map(ne, map(len, fill), rows)):
            raise ValueError("filling does not match shape")
        height = len(rows)
        left = 0
        for j in range(rows[0] if rows else 0):
            while rows[height - 1] <= j:
                height -= 1
            seen_one = False
            error = ""
            for i in range(height):
                x = fill[i][j]
                if x not in (0, 1):
                    error = error or "filling must be 0/1"
                if x:
                    seen_one = True
                    left |= 1 << i
                elif seen_one and left >> i & 1:
                    # restricted 0 with a 1 to its left: forbidden pattern
                    error = error or "0-pattern rule violated"
            if not seen_one:
                raise ValueError(f"column {j} has no 1")
            if error:
                raise ValueError(error)

    @property
    def size(self) -> int:
        return len(self.rows) + (self.rows[0] if self.rows else 0)

    def to_json(self) -> str:
        return json.dumps({"rows": list(self.rows), "fill": [list(r) for r in self.fill]})

    @classmethod
    def from_json(cls, s: str) -> "PermutationTableau":
        d = json.loads(s)
        return cls(tuple(d["rows"]), tuple(tuple(r) for r in d["fill"]))


def tableau_stats(t: PermutationTableau) -> TableauStats:
    # one pass over the columns, as in PermutationTableau.__post_init__
    rows, fill = t.rows, t.fill
    height = len(rows)
    restricted = 0  # flags of the rows holding a 0 below a 1
    w = 0
    for j in range(rows[0] if rows else 0):
        while rows[height - 1] <= j:
            height -= 1
        seen_one = False
        for i in range(height):
            if fill[i][j]:
                w += seen_one
                seen_one = True
            elif seen_one:
                restricted |= 1 << i
    a = sum(fill[0]) if rows else 0
    return TableauStats(a=a, b=len(rows) - restricted.bit_count(), r=len(rows), w=w)


def _shapes(r: int, c: int) -> Iterator[tuple[int, ...]]:
    # Weakly decreasing length-r sequences with first part exactly c, in
    # descending lexicographic order.
    if r == 0:
        return iter([()] if c == 0 else [])
    return ((c, *rest) for rest in combinations_with_replacement(range(c, -1, -1), r - 1))


def _fillings(shape: tuple[int, ...]) -> Iterator[PermutationTableau]:
    # Column-major backtracking.  A column of height m is a bitmask in
    # 1 .. 2^m - 1 with bit i for row i (top row = bit 0), tried in
    # increasing order.  The 0-pattern rule is column-local given `left`, the
    # rows that already carry a 1 to the left, so pruning is sound: a mask is
    # allowed iff no 0 below its topmost 1 (bit mask & -mask) is in `left`.
    r = len(shape)
    heights = [sum(1 for ln in shape if ln > j) for j in range(shape[0] if shape else 0)]
    cols: list[int] = []
    bits = [bytes(m >> i & 1 for m in range(1 << r)) for i in range(r)]  # bits[i][m]: row i of m

    def rec(j: int, left: int):
        if j == len(heights):
            fill = tuple(tuple(map(bits[i].__getitem__, cols[: shape[i]])) for i in range(r))
            yield PermutationTableau(shape, fill)
            return
        full = (1 << heights[j]) - 1
        for mask in range(1, full + 1):
            if not (full ^ mask) & -(mask & -mask) & left:
                cols.append(mask)
                yield from rec(j + 1, left | mask)
                cols.pop()

    yield from rec(0, 0)


def enumerate_tableaux(size: int) -> Iterator[PermutationTableau]:
    """Every permutation tableau of the given size, exactly once."""
    if size < 0:
        raise ValueError("size must be >= 0")
    for r in range(size + 1):
        c = size - r
        for shape in _shapes(r, c):
            yield from _fillings(shape)


def _key(st: TableauStats) -> Exponent:
    # the monomial y^(r-1) q^w a^a b^(b-1) of a tableau
    return (st.r - 1, st.w, st.a, st.b - 1)


@lru_cache(maxsize=None)
def zn_tableaux(N: int) -> MPoly:
    """Partition function over tableaux of size N+1: a^a b^(b-1) y^(r-1) q^w."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return MPoly(Counter(map(_key, map(tableau_stats, enumerate_tableaux(N + 1)))))


def top_degree_check(n: int) -> MPoly:
    """Top-degree slice of the tableaux route against the q-binomial sum.

    Restricting to tableaux of size n+1 whose statistics satisfy
    a + b = n + 1 (all-1 first row, no restricted rows, hence no 0 at all)
    gives sum_k [n,k]_q a^k (y b)^(n-k); both sides are computed and the
    equality is asserted before returning the polynomial.
    """
    filtered = MPoly(
        Counter(
            _key(st)
            for st in map(tableau_stats, enumerate_tableaux(n + 1))
            if st.a + st.b == n + 1
        )
    )

    closed = ZERO
    for k in range(n + 1):
        closed = closed + q_binomial(n, k) * monomial(1, ea=k) * (Y * B) ** (n - k)
    if filtered != closed:
        raise AssertionError("top-degree tableaux slice differs from q-binomial sum")
    return closed
