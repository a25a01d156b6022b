"""Bijections between permutations, Laguerre histories, and path pairs.

Two classical insertion bijections are implemented with explicit inverses:

* foata_zeilberger: the i-th step of the history records whether i is a
  cycle valley, cycle peak or neither, with weight y^delta q^j where
  delta = 1 iff i <= sigma(i) and j counts nestings of the arrow at i
  among the open arrows.  Total weight y^wex q^cr.

  Inverse: scan i = 1..n keeping the open upper arrows ordered by their
  future landing value and the open lower landing slots ordered by
  position.  An up step inserts a new arrow at index j and opens a slot at
  i.  A level step with delta=1 and j=0 is a fixed point; with j>0 it
  closes the front arrow (the one landing at i) and reinserts at j-1.  A
  level step with delta=0 or a down step lands its outgoing lower arrow on
  the open slot with exactly j open slots above it; a down step also closes
  the front upper arrow.

* francon_viennot: the k-th step records the local shape of the position
  of the value k (valley, peak, double ascent, double descent, with the
  conventions sigma(0) = 0 and sigma(n+1) = n+1), with weight y^delta q^i
  where delta = 1 iff that position is an ascent and i is the number of
  31-2 patterns whose "2" sits there.  Total weight y^asc q^(31-2).

  Inverse: grow a word over values and gap slots.  Reading the k-th step,
  value k replaces the slot with index i from the left by "slot k slot"
  (up), "k" (down), "k slot" (level, delta=1) or "slot k" (level, delta=0);
  the final leftover slot sits at the right end and is dropped.

Both forward maps count their labels by popcounts over int masks of
values (bit v for the value v), in one pass over sigma; the per-step scans
they replace are kept in the tests as the definition.  The mask of all of
sigma's values must be (2 << n) - 2, so both raise ValueError for a sequence
that is not a permutation of {1..n}, and both inverses raise ValueError for
a sequence that is_valid_history rejects.

The step-type lemmas, which place the type 1 and type 2 steps of both
histories at extrema of sigma, are checked as equalities of masks of
positions and values in verify.bijection_suite.

The third bijection combines a length-N path of family R* with n q-power
level steps and a length-n path of family B* into a path of family P
(combine_paths), by letting the j-th step of the B* path ride on the j-th
q-power level step of the R* path.  The inverse (decompose_path) reads the
P path right to left and redistributes each step by a six-case rule table,
tracking the suffix starting heights h' and h'' with h = h' + h''.  Both
check their domain with paths.is_valid_family_path and raise ValueError
outside it.

The q = 0 reduction maps bicolor Motzkin paths (two level kinds, no second
kind at height 0) to pairs of Dyck paths through step doubling and the
unique factorization D = D1 up D2 down.
"""

from __future__ import annotations

from typing import Iterator

from .paths import (
    DOWN, LEVEL, UP, LaguerreStep, LengthMismatch, Step, _DH, _q_levels, is_motzkin_walk,
    is_valid_family_path, is_valid_history, motzkin_walks,
)
from .perms import Perm


# ---------------------------------------------------------------------------
# Foata-Zeilberger
# ---------------------------------------------------------------------------


def _value_mask(sigma: Perm) -> int:
    """The mask of sigma's values, bit v for the value v: (2 << n) - 2 for a
    permutation of {1..n}, which is checked; ValueError for anything else."""
    mask = 0
    for v in sigma:
        mask |= 1 << v
    if mask != (2 << len(sigma)) - 2:
        raise ValueError(f"not a permutation: {sigma!r}")
    return mask


def foata_zeilberger(sigma: Perm) -> tuple[LaguerreStep, ...]:
    """The Laguerre history of sigma; ValueError unless sigma is a permutation.

    before is the mask of the values at positions left of i, so the arrow at
    i nests under one arrow per value of before in [i, sigma(i)) when
    i <= sigma(i), and per value right of i in (sigma(i), i) otherwise; and
    the arrow into i comes from the left iff the value i is in before.
    """
    full = _value_mask(sigma)
    before = 0
    steps: list[LaguerreStep] = []
    for i, si in enumerate(sigma, start=1):
        bit = 1 << si
        from_left = before >> i & 1
        if i <= si:
            j = (before & (bit - (1 << i))).bit_count()
            steps.append((UP if i < si and not from_left else LEVEL, 1, j))
        else:
            j = ((full ^ before ^ bit) & ((1 << i) - (bit << 1))).bit_count()
            steps.append((DOWN if from_left else LEVEL, 0, j))
        before |= bit
    return tuple(steps)


def _check_history(history: tuple[LaguerreStep, ...]) -> None:
    if not is_valid_history(history):
        raise ValueError(f"not a Laguerre history: {history!r}")


def foata_zeilberger_inverse(history: tuple[LaguerreStep, ...]) -> Perm:
    _check_history(history)
    n = len(history)
    sigma = [0] * n
    open_upper: list[int] = []  # departure positions, ascending by landing value
    open_slots: list[int] = []  # positions awaiting a lower arrow, ascending
    for i, (d, delta, j) in enumerate(history, start=1):
        if d == UP:
            open_upper.insert(j, i)
            open_slots.append(i)
        elif d == LEVEL and delta == 1:
            if j == 0:
                sigma[i - 1] = i
            else:
                k = open_upper.pop(0)
                sigma[k - 1] = i
                open_upper.insert(j - 1, i)
        elif d == LEVEL:
            m = open_slots.pop(len(open_slots) - 1 - j)
            sigma[i - 1] = m
            open_slots.append(i)
        else:
            k = open_upper.pop(0)
            sigma[k - 1] = i
            m = open_slots.pop(len(open_slots) - 1 - j)
            sigma[i - 1] = m
    return tuple(sigma)


# ---------------------------------------------------------------------------
# Francon-Viennot
# ---------------------------------------------------------------------------


def francon_viennot(sigma: Perm) -> tuple[LaguerreStep, ...]:
    """The Laguerre history of sigma; ValueError unless sigma is a permutation.

    One left-to-right pass that fills in the step of each value k where k
    stands.  k's label i counts the descents x > z that end left of k and
    straddle it, z < k < x.  lows and highs are the masks of the bottoms z
    and the tops x of the descents that end left of k; a descent whose top
    is below k has its bottom below k too, and k tops none of them, so
    i = #(lows below k) - #(highs below k).
    """
    n = len(sigma)
    _value_mask(sigma)
    steps: list[LaguerreStep] = [(LEVEL, 0, 0)] * n
    lows = highs = 0
    left = 0
    for k, right in zip(sigma, (*sigma[1:], n + 1)):
        below = (1 << k) - 1
        i = (lows & below).bit_count() - (highs & below).bit_count()
        if k < right:
            steps[k - 1] = (UP if left > k else LEVEL, 1, i)
        else:
            steps[k - 1] = (DOWN if left < k else LEVEL, 0, i)
        if left > k:
            lows |= 1 << k
            highs |= 1 << left
        left = k
    return tuple(steps)


_SLOT = 0


def francon_viennot_inverse(history: tuple[LaguerreStep, ...]) -> Perm:
    _check_history(history)
    word: list[int] = [_SLOT]
    for k, (d, delta, i) in enumerate(history, start=1):
        pos = word.index(_SLOT)
        for _ in range(i):
            pos = word.index(_SLOT, pos + 1)
        if d == UP:
            word[pos : pos + 1] = [_SLOT, k, _SLOT]
        elif d == DOWN:
            word[pos] = k
        elif delta == 1:
            word[pos : pos + 1] = [k, _SLOT]
        else:
            word[pos : pos + 1] = [_SLOT, k]
    return tuple(word[:-1])


# ---------------------------------------------------------------------------
# Combining R* and B* paths into P paths
# ---------------------------------------------------------------------------


def combine_paths(h1: tuple[Step, ...], h2: tuple[Step, ...]) -> tuple[Step, ...]:
    """Ride the j-th B* step on the j-th q-power level step of the R* path.

    The combined step keeps the R* step unless that step is a q-power
    level, in which case it takes the direction of the next B* step and the
    product weight; the product is again a single admissible tag because
    q^h' * (q^i - q^(i+1)) = q^(h'+i) - q^(h'+i+1).  Raises ValueError
    unless h1 is a closed R* path and h2 a closed B* path.
    """
    if not is_valid_family_path(h1, "R*"):
        raise ValueError(f"not a family-R* path: {h1!r}")
    if not is_valid_family_path(h2, "B*"):
        raise ValueError(f"not a family-B* path: {h2!r}")
    q_level_count = _q_levels(h1)
    if q_level_count != len(h2):
        raise LengthMismatch(
            f"B* path length {len(h2)} != {q_level_count} q-power level steps"
        )
    out: list[Step] = []
    h1h = 0
    j = 0
    for d1, t1 in h1:
        if d1 == LEVEL and t1[0] == "qpow":
            d2, t2 = h2[j]
            j += 1
            if d2 == UP:
                out.append((UP, ("frac", h1h + t2[1])))
            elif d2 == LEVEL:
                out.append((LEVEL, ("ab",)))
            else:
                out.append((DOWN, ("negab",)))
        else:
            out.append((d1, t1))
        h1h += _DH[d1]
    return tuple(out)


def decompose_path(p_steps: tuple[Step, ...]) -> tuple[tuple[Step, ...], tuple[Step, ...]]:
    """Inverse of combine_paths on closed family-P paths; ValueError for
    anything else.

    Reads the path right to left.  Reading a step prepends to both partial
    suffixes per the rule table; the height bookkeeping h = h' + h'' between
    the three suffix starting heights is asserted at every intermediate
    stage.
    """
    if not is_valid_family_path(p_steps, "P"):
        raise ValueError(f"not a family-P path: {p_steps!r}")
    h1_rev: list[Step] = []
    h2_rev: list[Step] = []
    h1h = 0
    h2h = 0
    ph = 0
    for d, tag in reversed(p_steps):
        if d == DOWN and tag[0] == "negab":
            h1_rev.append((LEVEL, ("qpow",)))
            h2_rev.append((DOWN, ("negab",)))
            h2h += 1
        elif d == DOWN and tag[0] == "y":
            h1_rev.append((DOWN, ("y",)))
            h1h += 1
        elif d == LEVEL and tag[0] == "oney":
            h1_rev.append((LEVEL, ("oney",)))
        elif d == LEVEL and tag[0] == "ab":
            h1_rev.append((LEVEL, ("qpow",)))
            h2_rev.append((LEVEL, ("ab",)))
        else:  # an up step ("frac", i)
            i = tag[1]
            if i < h1h:
                h1_rev.append((UP, ("frac", i)))
                h1h -= 1
            else:
                h1_rev.append((LEVEL, ("qpow",)))
                h2_rev.append((UP, ("frac", i - h1h)))
                h2h -= 1
        ph -= _DH[d]
        assert ph == h1h + h2h, "height bookkeeping h = h' + h'' violated"
    return tuple(reversed(h1_rev)), tuple(reversed(h2_rev))


# ---------------------------------------------------------------------------
# Bicolor Motzkin paths and the q = 0 Dyck pair reduction
# ---------------------------------------------------------------------------

L2 = "L2"  # second horizontal kind, forbidden at height 0
_BDH = {UP: 1, LEVEL: 0, L2: 0, DOWN: -1}


def _bicolor_options(h: int) -> tuple[tuple[str, int], ...]:
    if h == 0:
        return (UP, 1), (LEVEL, 0)
    return (UP, 1), (LEVEL, 0), (L2, 0), (DOWN, -1)


def is_valid_bicolor(steps: tuple[str, ...]) -> bool:
    return is_motzkin_walk(steps, _bicolor_options)


def enumerate_bicolor(n: int) -> Iterator[tuple[str, ...]]:
    return motzkin_walks(n, _bicolor_options)


_DOUBLING = {UP: (UP, UP), LEVEL: (UP, DOWN), L2: (DOWN, UP), DOWN: (DOWN, DOWN)}


def bicolor_to_dyck_pair(steps: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Step doubling followed by the last-arch factorization D = D1 up D2 down.

    A bicolor path of length m maps to a Dyck path of length 2m whose first
    and last steps are forced, so the two returned Dyck paths have lengths
    summing to 2m - 2.  The empty path maps to the empty pair.
    """
    if not steps:
        return ((), ())
    if not is_valid_bicolor(steps):
        raise ValueError("not a valid bicolor Motzkin path")
    d: list[str] = []
    for s in steps:
        d.extend(_DOUBLING[s])
    h = 0
    last_zero = 0
    for idx, s in enumerate(d[:-1]):
        h += 1 if s == UP else -1
        if h == 0:
            last_zero = idx + 1
    d1 = tuple(d[:last_zero])
    assert d[last_zero] == UP and d[-1] == DOWN
    d2 = tuple(d[last_zero + 1 : -1])
    return d1, d2


def bicolor_mark_counts(steps: tuple[str, ...]) -> tuple[int, int]:
    """(#up-or-L1 steps at height 0, #down-or-L2 steps at height 1 right of those).

    These are the boundary-weight marks carried through the q = 0 reduction;
    the first count equals ret(D1) + 1 and the second ret(D2).
    """
    h = 0
    beta_positions = []
    candidates = []
    for idx, s in enumerate(steps):
        if h == 0 and s in (UP, LEVEL):
            beta_positions.append(idx)
        if h == 1 and s in (DOWN, L2):
            candidates.append(idx)
        h += _BDH[s]
    last_beta = beta_positions[-1] if beta_positions else -1
    return len(beta_positions), sum(1 for idx in candidates if idx > last_beta)
