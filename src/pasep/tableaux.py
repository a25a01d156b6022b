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

A PermutationTableau is its row lengths and one bitmask per column (bit i
for row i, top row = bit 0); the 0/1 rows exist only in its JSON form.  The
generator, the validator and tableau_stats share one mask expression,
_restricted, for the 0-pattern rule: the restricted 0s of a column miss
every row with a 1 further left.

enumerate_tableaux is the one producer that skips the validator, because
its column extension makes each of the validator's tests as it goes: the
row lengths come from _shapes (weakly decreasing, >= 0, first part the
number of columns), each column gets one mask in 1..full, the rows that
reach it, and a mask is taken only when its restricted 0s miss `left`.
The constructor, _make, _replace and from_json all validate.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import lt, ne
from typing import Iterator, NamedTuple

from .polyring import MPoly, Exponent


class TableauStats(NamedTuple):
    a: int  # 1s in the first row
    b: int  # unrestricted rows
    r: int  # rows, zero-length rows included
    w: int  # superfluous 1s


@lru_cache(maxsize=1024)  # every shape of size <= 10, the CLI cap
def _fulls(rows: tuple[int, ...]) -> tuple[int, ...]:
    # per column, left to right, the mask of the rows that reach it: from
    # the bottom up, the columns that row i adds reach rows 0 .. i
    fulls: list[int] = []
    for i in range(len(rows) - 1, -1, -1):
        fulls += [(2 << i) - 1] * (rows[i] - len(fulls))
    return tuple(fulls)


def _restricted(mask: int, full: int) -> int:
    # the restricted 0s of a column: its 0s below its topmost 1 (mask & -mask)
    return (full ^ mask) & -(mask & -mask)


class _Tableau(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]  # one mask per column, bit i for row i


class PermutationTableau(_Tableau):
    # a typing.NamedTuple class may not define __new__, so the checks that
    # every construction runs live in this subclass
    __slots__ = ()

    def __new__(cls, rows: tuple[int, ...], cols: tuple[int, ...]):
        # one pass over the columns; `left` holds the rows with a 1 so far
        if any(map(lt, rows, (*rows[1:], 0))):
            raise ValueError("row lengths must be weakly decreasing and >= 0")
        if len(cols) != (rows[0] if rows else 0):
            raise ValueError("filling does not match shape")
        left = 0
        for j, (full, mask) in enumerate(zip(_fulls(rows), cols)):
            if not mask:
                raise ValueError(f"column {j} has no 1")
            if not 0 < mask <= full:
                raise ValueError("filling does not match shape")
            if _restricted(mask, full) & left:
                raise ValueError("0-pattern rule violated")
            left |= mask
        return super().__new__(cls, rows, cols)

    @classmethod
    def _make(cls, iterable) -> "PermutationTableau":
        # the inherited _make, which _replace calls too, skips __new__
        return cls(*iterable)

    @property
    def fill(self) -> tuple[tuple[int, ...], ...]:
        """The 0/1 rows, top to bottom."""
        return tuple(tuple(m >> i & 1 for m in self.cols[:n]) for i, n in enumerate(self.rows))

    def to_dict(self) -> dict:
        """The JSON form {"rows": [...], "fill": [[0/1, ...], ...]}."""
        return {"rows": list(self.rows), "fill": [list(r) for r in self.fill]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "PermutationTableau":
        d = json.loads(s)
        if not (
            isinstance(d, dict)
            and isinstance(d.get("rows"), list)
            and isinstance(d.get("fill"), list)
            and all(type(n) is int for n in d["rows"])
            and all(isinstance(row, list) for row in d["fill"])
        ):
            raise ValueError('tableau JSON must be {"rows": [int, ...], "fill": [[...], ...]}')
        rows, fill = tuple(d["rows"]), d["fill"]
        if len(fill) != len(rows) or any(map(ne, map(len, fill), rows)):
            raise ValueError("filling does not match shape")
        if any(x not in (0, 1) for row in fill for x in row):
            raise ValueError("filling must be 0/1")
        cols = tuple(
            sum(1 << i for i, row in enumerate(fill) if j < len(row) and row[j])
            for j in range(rows[0] if rows else 0)
        )
        return cls(rows, cols)


def tableau_stats(t: PermutationTableau) -> TableauStats:
    # each column has one topmost 1, so the superfluous 1s are all 1s but those
    a = ones = restricted = 0
    for full, mask in zip(_fulls(t.rows), t.cols):
        a += mask & 1
        ones += mask.bit_count()
        restricted |= _restricted(mask, full)
    r = len(t.rows)
    return TableauStats(a, r - restricted.bit_count(), r, ones - len(t.cols))


def _shapes(r: int, c: int) -> Iterator[tuple[int, ...]]:
    # Weakly decreasing length-r sequences with first part exactly c, in
    # descending lexicographic order.
    if r == 0:
        return iter([()] if c == 0 else [])
    return ((c, *rest) for rest in combinations_with_replacement(range(c, -1, -1), r - 1))


def _fillings(shape: tuple[int, ...]) -> Iterator[PermutationTableau]:
    # The valid fillings of the first columns, each with `left`, the rows
    # holding a 1 there, extended one column at a time: given `left` the
    # 0-pattern rule is column-local.  Masks go in increasing order, so the
    # fillings come in lexicographic order of their columns.  The last
    # column is streamed, not listed, and each tableau is built without
    # the validator, whose every test the extension has already made.
    fulls = _fulls(shape)
    if not fulls:  # no column: the one filling is empty
        yield tuple.__new__(PermutationTableau, (shape, ()))
        return
    *fulls, last = fulls
    partial = [((), 0)]
    for full in fulls:
        partial = [
            ((*cols, mask), left | mask)
            for cols, left in partial
            for mask in range(1, full + 1)
            if not _restricted(mask, full) & left
        ]
    masks = [(mask, _restricted(mask, last)) for mask in range(1, last + 1)]
    for cols, left in partial:
        for mask, restricted in masks:
            if not restricted & left:
                yield tuple.__new__(PermutationTableau, (shape, (*cols, mask)))


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


def zn_tableaux(N: int) -> MPoly:
    """Partition function over tableaux of size N+1: a^a b^(b-1) y^(r-1) q^w."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return MPoly(Counter(map(_key, map(tableau_stats, enumerate_tableaux(N + 1)))))
