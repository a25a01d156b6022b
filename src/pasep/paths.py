"""Weighted Motzkin and Dyck path machinery.

Three layers live here:

* Laguerre histories: Motzkin paths whose steps carry labels (delta, i)
  with delta in {0,1} and i bounded by the starting height h
  (up: delta=1, i<=h;  level: delta=1, i<=h or delta=0, i<=h-1;
  down: delta=0, i<=h-1).  The step weight is y^delta q^i.  A step of
  weight y q^h is called type 1, one of weight q^(h-1) type 2 (both
  defined once, in _step_type); zn_histories keys each history in one
  pass by _history_key.

* The transfer-matrix path families P, R, R*, B, B*.  Steps are pairs
  (direction, tag) where the tag names one symbolic weight alternative;
  the actual polynomial weight is resolved lazily from the tag and the
  starting height.  Keeping the tag rather than the polynomial as the
  identity of a step matters: an up step of weight 1 - q^(h+1) in the
  starred families is split into h+1 distinct steps q^i - q^(i+1).

      family P   up: q^i - q^(i+1), i<=h     level: 1+y  or (at+y*bt)q^h
                 down: y  or  -y*at*bt*q^(h-1)
      family R   up: 1 or -q^(h+1)           level: 1+y  or  q^h
                 down: y          (exactly n q-power level steps)
      family B   up: 1 or -q^(h+1)           level: (at+y*bt)q^h
                 down: -y*at*bt*q^(h-1)
      starred    as R / B but with the split up steps of P

  where at = (1-q)a - 1 and bt = (1-q)b - 1.

* Plain Dyck paths with returns/peaks statistics, Fine paths, and the
  q=0 Dyck-pair evaluation of the partition function.  fine_poly_paths
  never builds a whole path: it scans each half that motzkin_walks would
  join once, counts the halves by junction height, peaks and junction
  step, and joins those counts height by height, adding the peak (or
  dropping the hill) made at the junction; is_fine and peaks stay the
  definitions.

Every transfer operator (families P, R, B and their cardinalities,
J-fraction recurrences, the matrices of the ansatz module) is one
StepWeights: its up, level and down weights as functions of the height.
Every weighted sum is one call of motzkin_sum, a height-indexed dynamic
program over Motzkin paths that drops every height above the number of
steps left.  Every explicit path (Laguerre histories, families P/R*/B*,
Dyck and bicolor paths) is enumerated by motzkin_walks with the same
pruning, which joins each listed prefix of the first half of the steps to
each listed suffix of the second half, and histories, family paths and
bicolor paths are checked by is_motzkin_walk; both read the steps allowed
at each height from one options function per kind of path.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from .polyring import (
    ALPHA_TILDE,
    BETA_TILDE,
    A,
    B,
    MPoly,
    ONE,
    Y,
    ZERO,
    coeff_of,
    exact_div_pow_one_minus_q,
    exact_div_var,
    monomial,
    substitute,
)

UP, LEVEL, DOWN = "U", "L", "D"
_DH = {UP: 1, LEVEL: 0, DOWN: -1}


class MalformedPath(ValueError):
    """Input sequence is not a path of the required kind."""


class LengthMismatch(ValueError):
    """Pair of paths has incompatible lengths."""


# ---------------------------------------------------------------------------
# Laguerre histories
# ---------------------------------------------------------------------------

LaguerreStep = tuple[str, int, int]  # (direction, delta, i)


# Cached because is_valid_history asks for them at every step; one entry
# per height, and a history of n steps never climbs above n // 2.
@lru_cache(maxsize=None)
def _laguerre_options(h: int) -> tuple[tuple[LaguerreStep, int], ...]:
    return (
        *[((UP, 1, i), 1) for i in range(h + 1)],
        *[((LEVEL, 1, i), 0) for i in range(h + 1)],
        *[((LEVEL, 0, i), 0) for i in range(h)],
        *[((DOWN, 0, i), -1) for i in range(h)],
    )


def is_valid_history(steps: tuple[LaguerreStep, ...]) -> bool:
    return is_motzkin_walk(steps, _laguerre_options)


def enumerate_laguerre(n: int) -> Iterator[tuple[LaguerreStep, ...]]:
    """Every Laguerre history of n steps."""
    return motzkin_walks(n, _laguerre_options)


def history_weight(steps: tuple[LaguerreStep, ...]) -> MPoly:
    """Product over steps of y^delta q^i."""
    ey = sum(delta for _, delta, _ in steps)
    eq = sum(i for _, _, i in steps)
    return monomial(1, ey=ey, eq=eq)


def _step_type(delta: int, i: int, h: int) -> int:
    """1 for a type 1 step (weight y q^h at starting height h), 2 for a type 2
    step (weight q^(h-1)), else 0: the steps carrying the top label at h."""
    return 2 - delta if i - delta == h - 1 else 0


def history_type_flags(steps: tuple[LaguerreStep, ...]) -> list[tuple[bool, bool]]:
    """(type1, type2) per step: weight y q^h resp. q^(h-1) at starting height h."""
    out = []
    h = 0
    for d, delta, i in steps:
        kind = _step_type(delta, i, h)
        out.append((kind == 1, kind == 2))
        h += _DH[d]
    return out


def history_json(steps: tuple[LaguerreStep, ...]) -> dict:
    return {
        "steps": [
            {"d": d, "w": (f"yq^{i}" if delta else f"q^{i}")} for d, delta, i in steps
        ]
    }


def _history_key(steps: tuple[LaguerreStep, ...]) -> tuple[int, int, int, int]:
    """(ey, eq, type 2 steps right of every type 1 step, type 1 steps - 1) in
    one pass; every nonempty history opens with a type 1 step."""
    ey = eq = type1 = late2 = h = 0
    for d, delta, i in steps:
        ey += delta
        eq += i
        kind = _step_type(delta, i, h)
        if kind == 1:
            type1 += 1
            late2 = 0
        elif kind == 2:
            late2 += 1
        h += _DH[d]
    return ey, eq, late2, type1 - 1


@lru_cache(maxsize=None)
def zn_histories(N: int) -> MPoly:
    """Partition function from Laguerre histories of N+1 steps.

    y * Z(N) is the sum over histories of
    a^(type 2 steps right of every type 1 step) * b^(type 1 steps - 1) * weight,
    each history keyed by _history_key.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return exact_div_var(MPoly(Counter(map(_history_key, enumerate_laguerre(N + 1)))), "y", 1)


# ---------------------------------------------------------------------------
# The transfer-matrix families P, R, R*, B, B*
# ---------------------------------------------------------------------------

Step = tuple[str, tuple]  # (direction, weight tag)


# Each weight tag kind mapped to its (polynomial, JSON string) as functions of
# the starting height h and, for "frac", of the tag's index i.
_TAGS: dict[str, tuple[Callable[..., MPoly], Callable[..., str]]] = {
    "frac": (
        lambda h, i: monomial(1, eq=i) - monomial(1, eq=i + 1),
        lambda h, i: f"q^{i}-q^{i + 1}",
    ),
    "one": (lambda h: ONE, lambda h: "1"),
    "negq": (lambda h: -monomial(1, eq=h + 1), lambda h: f"-q^{h + 1}"),
    "oney": (lambda h: ONE + Y, lambda h: "1+y"),
    "qpow": (lambda h: monomial(1, eq=h), lambda h: f"q^{h}"),
    "ab": (
        lambda h: (ALPHA_TILDE + Y * BETA_TILDE) * monomial(1, eq=h),
        lambda h: f"(at+y*bt)q^{h}",
    ),
    "y": (lambda h: Y, lambda h: "y"),
    "negab": (
        lambda h: -(Y * ALPHA_TILDE * BETA_TILDE) * monomial(1, eq=h - 1),
        lambda h: f"-y*at*bt*q^{h - 1}",
    ),
}


def _tag_entry(tag: tuple) -> tuple[Callable[..., MPoly], Callable[..., str]]:
    if tag[0] not in _TAGS:
        raise ValueError(f"unknown step tag {tag!r}")
    return _TAGS[tag[0]]


def step_weight(tag: tuple, h: int) -> MPoly:
    """Resolve a symbolic step tag at starting height h to its polynomial."""
    return _tag_entry(tag)[0](h, *tag[1:])


def step_weight_string(tag: tuple, h: int) -> str:
    return _tag_entry(tag)[1](h, *tag[1:])


def path_weight(steps: tuple[Step, ...]) -> MPoly:
    w = ONE
    h = 0
    for d, tag in steps:
        w = w * step_weight(tag, h)
        h += _DH[d]
    return w


def path_json(steps: tuple[Step, ...]) -> dict:
    out = []
    h = 0
    for d, tag in steps:
        out.append({"d": d, "w": step_weight_string(tag, h)})
        h += _DH[d]
    return {"steps": out}


def _family_options(family: str, d: str, h: int) -> list[tuple]:
    """Admissible weight tags for a step of direction d at starting height h."""
    split_up = family in ("P", "R*", "B*")
    if d == UP:
        if split_up:
            return [("frac", i) for i in range(h + 1)]
        return [("one",), ("negq",)]
    if d == LEVEL:
        if family == "P":
            return [("oney",), ("ab",)]
        if family in ("R", "R*"):
            return [("oney",), ("qpow",)]
        return [("ab",)]
    if family == "P":
        return [("y",), ("negab",)]
    if family in ("R", "R*"):
        return [("y",)]
    return [("negab",)]


def _family_walk(family: str) -> Options:
    return lambda h: [
        ((d, tag), dh) for d, dh in _DH.items() for tag in _family_options(family, d, h)
    ]


def _q_levels(steps: tuple[Step, ...]) -> int:
    return sum(1 for d, tag in steps if d == LEVEL and tag[0] == "qpow")


def is_valid_family_path(steps: tuple[Step, ...], family: str, q_levels: int | None = None) -> bool:
    return is_motzkin_walk(steps, _family_walk(family)) and (
        q_levels is None or _q_levels(steps) == q_levels
    )


def _enumerate_family(length: int, family: str, q_levels: int | None = None) -> Iterator[tuple[Step, ...]]:
    walks = motzkin_walks(length, _family_walk(family))
    if q_levels is None:
        return walks
    return (p for p in walks if _q_levels(p) == q_levels)


def enumerate_PN(N: int) -> Iterator[tuple[Step, ...]]:
    """Family P paths of length N, one object per discrete weight choice."""
    return _enumerate_family(N, "P")


def enumerate_R_star(N: int, n: int) -> Iterator[tuple[Step, ...]]:
    return _enumerate_family(N, "R*", q_levels=n)


def enumerate_B_star(n: int) -> Iterator[tuple[Step, ...]]:
    return _enumerate_family(n, "B*")


# Weighted sums.  Every sum below is one call of motzkin_sum; a family's
# step weights are its tag alternatives summed per (direction, height), so
# the split up steps of a starred family add up to the 1 - q^(h+1) of the
# unstarred one and starred and unstarred sums coincide.

Weight = Callable[[int], MPoly]


class StepWeights(NamedTuple):
    """A transfer operator as the weights of one Motzkin step from height h,
    each a function of h, or None where there is no such step.

    A tridiagonal matrix M applied to |V>, read right to left, is
    (M[h+1, h], M[h, h], M[h-1, h]).  The recurrence
    x P_n = P_(n+1) + b_n P_n + lam_n P_(n-1) is (1, b, lam): its N-th
    moment is the weighted Motzkin sum that pairs each up step with its
    down step and puts lam(h) on every down step starting at height h.
    """

    up: Weight | None
    level: Weight | None
    down: Weight | None


def motzkin_sum(N: int, step: Callable[[int], StepWeights]) -> MPoly:
    """Total weight of the N-step Motzkin paths from height 0 back to 0.

    step(k) is the operator of the k-th step.  A path's weight is the
    product of its step weights.  Heights above the number of steps left
    are dropped, since no path returns to 0 from there, and zero products
    are not stored.
    """
    if N < 0:
        raise ValueError("path length must be >= 0")
    cur: dict[int, MPoly] = {0: ONE}
    for k in range(N):
        left = N - k - 1
        nxt: dict[int, MPoly] = {}
        for dh, weight in zip((1, 0, -1), step(k)):
            if weight is None:
                continue
            for h, w in cur.items():
                g = h + dh
                if 0 <= g <= left:
                    val = w * weight(h)
                    if val:
                        nxt[g] = nxt[g] + val if g in nxt else val
        cur = nxt
    return cur.get(0, ZERO)


Options = Callable[[int], Iterable[tuple[object, int]]]


def motzkin_walks(N: int, options: Options) -> Iterator[tuple]:
    """Every N-step path from height 0 back to 0, as a tuple of step labels.

    options(h) lists the (label, dh) steps allowed from height h, in output
    order, and paths come in the depth-first order that gives.  As in
    motzkin_sum, a step is taken only when it lands at a height from 0 up to
    the number of steps left.  No path of N steps climbs above N // 2, so
    options is called once for each height up to there.

    Each path is one join of a listed prefix of the first N - N // 2 steps
    and a listed suffix of the last N // 2: for each prefix in depth-first
    order, every suffix from the prefix's end height back to 0, again in
    depth-first order.  The two halves are listed at the first next() and
    held until the walk ends, one list each (3.8 MB at peak under
    tracemalloc for the 9.7 million Dyck paths of 30 steps).
    """
    if N < 0:
        raise ValueError("path length must be >= 0")
    return _join_halves(N, options)


def _halves(N: int, options: Options) -> tuple[list[tuple[tuple, int]], list[list[tuple]]]:
    """The two halves that motzkin_walks joins: every (prefix, end height) of
    the first N - N // 2 steps, and suffixes[h], every path of the last
    N // 2 steps from height h back to 0, each list in depth-first order."""
    half = N // 2
    # table[h]: (label, height after the step) for each step from h that stays >= 0
    table = [[(label, h + dh) for label, dh in options(h) if h + dh >= 0] for h in range(half + 1)]
    # suffixes[h]: the s-step paths from h back to 0, built up from s = 0 to
    # half; a path of s steps starts no higher than s
    suffixes = [[()]]
    for s in range(1, half + 1):
        suffixes = [
            [(label, *t) for label, g in table[h] if g < s for t in suffixes[g]]
            for h in range(s + 1)
        ]
    # (prefix, end height), extended one step at a time; left counts the
    # steps after the one taken, so every prefix ends at most half high
    prefixes = [((), 0)]
    for left in range(N - 1, half - 1, -1):
        prefixes = [((*p, label), g) for p, h in prefixes for label, g in table[h] if g <= left]
    return prefixes, suffixes


def _join_halves(N: int, options: Options) -> Iterator[tuple]:
    prefixes, suffixes = _halves(N, options)
    for p, h in prefixes:
        for t in suffixes[h]:
            yield p + t


def is_motzkin_walk(steps: Iterable, options: Options) -> bool:
    """True when each step is among options(h) at the height h it starts
    from, the height never goes below 0, and the path ends at 0."""
    h = 0
    for label in steps:
        for allowed, dh in options(h):
            if allowed == label:
                break
        else:
            return False
        h += dh
        if h < 0:
            return False
    return h == 0


def _family_steps(family: str, weigh: Callable[[tuple, int], MPoly]) -> StepWeights:
    """Kernel weights of a family: at height h, the sum of weigh(tag, h)
    over the admissible tags, each q-power level step also marked by a.
    Families R and R* contain no a, so there the a-degree counts those steps."""

    def direction(d: str) -> Weight:
        def weight(h: int) -> MPoly:
            total = ZERO
            for tag in _family_options(family, d, h):
                w = weigh(tag, h)
                total = total + (w * A if tag[0] == "qpow" else w)
            return total

        return weight

    return StepWeights(direction(UP), direction(LEVEL), direction(DOWN))


@lru_cache(maxsize=None)
def sum_R(N: int, n: int) -> MPoly:
    """Sum of weights over the R (equivalently R*) family."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    steps = _family_steps("R", step_weight)
    return coeff_of(motzkin_sum(N, lambda k: steps), "a", n)


@lru_cache(maxsize=None)
def sum_B(n: int) -> MPoly:
    """Sum of weights over the B (equivalently B*) family."""
    steps = _family_steps("B", step_weight)
    return motzkin_sum(n, lambda k: steps)


@lru_cache(maxsize=None)
def zn_paths(N: int) -> MPoly:
    """Partition function as the family-P weighted sum divided by (1-q)^N."""
    steps = _family_steps("P", step_weight)
    return exact_div_pow_one_minus_q(motzkin_sum(N, lambda k: steps), N)


def count_family(length: int, family: str, q_levels: int | None = None) -> int:
    """Unweighted cardinality (each discrete weight alternative counted once)."""
    steps = _family_steps(family, lambda tag, h: ONE)
    counts = motzkin_sum(length, lambda k: steps)
    if q_levels is not None:
        counts = coeff_of(counts, "a", q_levels)
    return sum(c for _, c in counts.items())


# ---------------------------------------------------------------------------
# J-fraction moments
# ---------------------------------------------------------------------------


def jfraction_moment(rec: StepWeights, N: int) -> MPoly:
    """N-th moment of the J-fraction of rec: the N-step Motzkin sum with
    rec at every step."""
    return motzkin_sum(N, lambda k: rec)


# ---------------------------------------------------------------------------
# Dyck paths, Fine paths, and the q = 0 pair formula
# ---------------------------------------------------------------------------


def _check_dyck(steps) -> tuple[str, ...]:
    steps = tuple(steps)
    h = 0
    for s in steps:
        if s == UP:
            h += 1
        elif s == DOWN:
            h -= 1
        else:
            raise MalformedPath(f"bad Dyck step {s!r}")
        if h < 0:
            raise MalformedPath("path dips below the axis")
    if h != 0:
        raise MalformedPath("path does not return to height 0")
    return steps


def returns(steps) -> int:
    """Number of returns to height 0 of a Dyck path."""
    steps = _check_dyck(steps)
    h = 0
    ret = 0
    for s in steps:
        h += 1 if s == UP else -1
        if h == 0:
            ret += 1
    return ret


def peaks(steps) -> int:
    """Number of up-down factors of a Dyck path."""
    steps = _check_dyck(steps)
    return sum(1 for i in range(len(steps) - 1) if steps[i] == UP and steps[i + 1] == DOWN)


def _dyck_options(h: int) -> tuple[tuple[str, int], ...]:
    return (UP, 1), (DOWN, -1)


def enumerate_dyck(n: int) -> Iterator[tuple[str, ...]]:
    """All Dyck paths with 2n steps."""
    return motzkin_walks(2 * n, _dyck_options)


def is_fine(steps: tuple[str, ...]) -> bool:
    """No peak whose up step starts at height 0 (no Dyck factor split there)."""
    h = 0
    for i, s in enumerate(steps):
        if s == UP and h == 0 and i + 1 < len(steps) and steps[i + 1] == DOWN:
            return False
        h += 1 if s == UP else -1
    return True


def _fine_peaks(steps: tuple[str, ...], h: int = 0) -> int:
    """Peaks of a Dyck path piece that starts at height h, or -1 when one of
    them lands at height 0 (a hill, so the path is not Fine): one scan that
    reads both peaks and is_fine.  A peak across the piece's left end is not
    seen."""
    count = 0
    prev = DOWN
    for s in steps:
        if s == UP:
            h += 1
        else:
            h -= 1
            if prev == UP:
                if not h:
                    return -1
                count += 1
        prev = s
    return count


@lru_cache(maxsize=None)
def fine_poly_paths(n: int) -> MPoly:
    """F_n(y): peak distribution over Fine paths of length 2n.

    Joins the two halves that enumerate_dyck joins, but by histogram: each
    half is scanned once (_fine_peaks) and counted by its height at the
    junction, its peaks and whether it meets the junction with an up step
    (prefix) or a down step (suffix).  Halves with a hill are dropped.  A
    prefix ending up and a suffix starting down make one more peak at the
    junction, which is a hill when the junction is at height 1.
    """
    prefixes, suffixes = _halves(2 * n, _dyck_options)
    ends = [Counter() for _ in suffixes]
    for p, h in prefixes:
        k = _fine_peaks(p)
        if k >= 0:
            ends[h][k, p[-1:] == (UP,)] += 1
    total: Counter = Counter()
    for h, (ending, starting) in enumerate(zip(ends, suffixes)):
        begins: Counter = Counter()
        for t in starting:
            k = _fine_peaks(t, h)
            if k >= 0:
                begins[k, t[:1] == (DOWN,)] += 1
        for (k1, up), c1 in ending.items():
            for (k2, down), c2 in begins.items():
                junction = up and down
                if not (junction and h == 1):
                    total[k1 + k2 + junction, 0, 0, 0] += c1 * c2
    return MPoly(total)


@lru_cache(maxsize=None)
def _returns_a(m: int) -> MPoly:
    """Sum of a^ret(D) over the Dyck paths D of length 2m."""
    return MPoly(Counter((0, 0, returns(d), 0) for d in enumerate_dyck(m)))


@lru_cache(maxsize=None)
def dyck_pair_sum_q0(N: int) -> MPoly:
    """Sum of b^ret(D1) a^ret(D2) over Dyck pairs with lengths adding to 2N.

    Equals the partition function at y = 1, q = 0.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return sum(
        (substitute(_returns_a(k), "a", B) * _returns_a(N - k) for k in range(N + 1)), ZERO
    )
