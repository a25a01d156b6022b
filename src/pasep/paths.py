"""Weighted Motzkin and Dyck path machinery.

Three layers live here:

* Laguerre histories: Motzkin paths whose steps carry labels (delta, i)
  with delta in {0,1} and i bounded by the starting height h
  (up: delta=1, i<=h;  level: delta=1, i<=h or delta=0, i<=h-1;
  down: delta=0, i<=h-1).  The step weight is y^delta q^i.  A step of
  weight y q^h is called type 1, one of weight q^(h-1) type 2 (both
  defined once, in history_scan).  One history_scan gives the weight's
  exponents and the masks of the type 1 and type 2 step positions; the
  bijection suite reads all four, and zn_histories keys each history by
  one history_scan in _history_key.

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

  where at = (1-q)a - 1 and bt = (1-q)b - 1.  _FAMILIES holds this table;
  any other family name is a ValueError.

* Plain Dyck paths with their returns, Fine paths, and the q=0 Dyck-pair
  evaluation of the partition function.  Returns are a step weight (a on
  each down step that lands at 0), so dyck_pair_sum_q0 is one motzkin_sum
  per length.  A peak spans two steps, so fine_poly_paths keys each prefix
  by its last step as well as its height, and never takes a peak that lands
  at 0 (a hill); the tests hold the definitions by listed Dyck paths.

Every transfer operator (families P, R, B and their cardinalities,
J-fraction recurrences, the matrices of the ansatz module) is one
StepWeights: its up, level and down weights as functions of the height.
Every sum of products of step weights is one call of motzkin_sum, a
height-indexed dynamic program over Motzkin paths that drops every height
above the number of steps left; fine_poly_paths is the same pass with the
last step in its key.  Every explicit path (Laguerre histories, families
P/R*/B* and bicolor paths) is enumerated by motzkin_walks with the
same pruning, which joins each listed prefix of the first half of the
steps to each listed suffix of the second half, from one options function
per kind of path that lists the steps allowed at each height.  Every
explicit path is checked by is_motzkin_walk, one loop that asks the kind's
step rule for each step's height change from the height it starts at:
_laguerre_step reads _LAGUERRE_RULE, _family_step the family's row of
_FAMILIES, and the Dyck and bicolor rules their dh dicts.  A rule accepts
exactly what its options list, in O(1) per step and keeping nothing, where
a table at height h would hold about 4h Laguerre labels.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
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


# The Laguerre step rule: (direction, delta) -> (dh, slack), where a step
# from height h carries an i in range(h + slack).  _laguerre_step checks a
# label by it and _laguerre_options lists the labels it allows.
_LAGUERRE_RULE = {(UP, 1): (1, 1), (LEVEL, 1): (0, 1), (LEVEL, 0): (0, 0), (DOWN, 0): (-1, 0)}


def _laguerre_options(h: int) -> tuple[tuple[LaguerreStep, int], ...]:
    return tuple(
        ((d, delta, i), dh) for (d, delta), (dh, slack) in _LAGUERRE_RULE.items() for i in range(h + slack)
    )


def _laguerre_step(step: object, h: int) -> int | None:
    """The height change of a Laguerre step from height h, or None unless
    step equals one of _laguerre_options(h)."""
    if not isinstance(step, tuple):
        return None
    try:
        d, delta, i = step
        dh, slack = _LAGUERRE_RULE[d, delta]
    except (ValueError, KeyError, TypeError):  # not 3 items, not a label, unhashable
        return None
    top = h + slack
    # i must equal an int in range(top).  An exact int is compared directly,
    # which spares building a range per step; the check on every FZ/FV
    # history of S_0..S_7 takes about 0.6x the time of range(top) alone.
    return dh if (0 <= i < top if type(i) is int else i in range(top)) else None


def is_valid_history(steps: tuple[LaguerreStep, ...]) -> bool:
    return is_motzkin_walk(steps, _laguerre_step)


def enumerate_laguerre(n: int) -> Iterator[tuple[LaguerreStep, ...]]:
    """Every Laguerre history of n steps."""
    return motzkin_walks(n, _laguerre_options)


def history_weight(steps: tuple[LaguerreStep, ...]) -> MPoly:
    """Product over steps of y^delta q^i."""
    return monomial(1, *history_scan(steps)[:2])


def history_scan(steps: tuple[LaguerreStep, ...]) -> tuple[int, int, int, int]:
    """(sum of delta, sum of i, type 1 mask, type 2 mask) in one pass.  Bit k
    of a mask marks the k-th step, counted from 1.  A step from height h is
    type 1 when its weight is y q^h and type 2 when it is q^(h-1): the steps
    carrying the top label at h."""
    ey = eq = type1 = type2 = h = 0
    bit = 2
    for d, delta, i in steps:
        ey += delta
        eq += i
        if i - delta == h - 1:
            if delta:
                type1 |= bit
            else:
                type2 |= bit
        h += _DH[d]
        bit <<= 1
    return ey, eq, type1, type2


def history_json(steps: tuple[LaguerreStep, ...]) -> dict:
    return {
        "steps": [
            {"d": d, "w": (f"yq^{i}" if delta else f"q^{i}")} for d, delta, i in steps
        ]
    }


def _history_key(steps: tuple[LaguerreStep, ...]) -> tuple[int, int, int, int]:
    """(ey, eq, type 2 steps right of every type 1 step, type 1 steps - 1)
    from one history_scan; every nonempty history opens with a type 1 step."""
    ey, eq, type1, type2 = history_scan(steps)
    return ey, eq, (type2 >> type1.bit_length()).bit_count(), type1.bit_count() - 1


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


# Each family's admissible weight tag kinds per direction.  The one indexed
# kind, "frac", stands for the split up steps ("frac", i), i <= h.
_FAMILIES: dict[str, dict[str, tuple[str, ...]]] = {
    "P": {UP: ("frac",), LEVEL: ("oney", "ab"), DOWN: ("y", "negab")},
    "R": {UP: ("one", "negq"), LEVEL: ("oney", "qpow"), DOWN: ("y",)},
    "R*": {UP: ("frac",), LEVEL: ("oney", "qpow"), DOWN: ("y",)},
    "B": {UP: ("one", "negq"), LEVEL: ("ab",), DOWN: ("negab",)},
    "B*": {UP: ("frac",), LEVEL: ("ab",), DOWN: ("negab",)},
}


def _family(name: str) -> dict[str, tuple[str, ...]]:
    if name not in _FAMILIES:
        raise ValueError(f"unknown path family {name!r}")
    return _FAMILIES[name]


def _tags(kinds: tuple[str, ...], h: int) -> list[tuple]:
    """The weight tags of the given kinds at starting height h, in order."""
    out: list[tuple] = []
    for kind in kinds:
        out += [("frac", i) for i in range(h + 1)] if kind == "frac" else [(kind,)]
    return out


def _family_options(kinds: dict[str, tuple[str, ...]], h: int) -> list[tuple[Step, int]]:
    return [((d, tag), dh) for d, dh in _DH.items() for tag in _tags(kinds[d], h)]


def _family_step(kinds: dict[str, tuple[str, ...]], step: object, h: int) -> int | None:
    """The height change of a step from height h of the family with these
    kinds, or None unless step is (d, (kind,)) for a kind of d other than
    "frac", or (d, ("frac", i)) with i in range(h + 1) where d allows "frac"."""
    if not (isinstance(step, tuple) and len(step) == 2 and isinstance(step[1], tuple)):
        return None
    d, tag = step
    allowed = kinds.get(d, ()) if isinstance(d, str) else ()
    kind = tag[0] if tag else None
    ok = kind in allowed and (len(tag) == 2 and tag[1] in range(h + 1) if kind == "frac" else len(tag) == 1)
    return _DH[d] if ok else None


def _q_levels(steps: tuple[Step, ...]) -> int:
    return sum(1 for d, tag in steps if d == LEVEL and tag[0] == "qpow")


def is_valid_family_path(steps: tuple[Step, ...], family: str) -> bool:
    return is_motzkin_walk(steps, partial(_family_step, _family(family)))


def _enumerate_family(length: int, family: str, q_levels: int | None = None) -> Iterator[tuple[Step, ...]]:
    walks = motzkin_walks(length, partial(_family_options, _family(family)))
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


def _join_halves(N: int, options: Options) -> Iterator[tuple]:
    half = N // 2
    # table[h]: (label, height after the step) for each step from h that stays >= 0
    table = [[(label, h + dh) for label, dh in options(h) if h + dh >= 0] for h in range(half + 1)]
    # suffixes[h]: the s-step paths from h back to 0 in depth-first order,
    # built up from s = 0 to half; a path of s steps starts no higher than s
    suffixes = [[()]]
    for s in range(1, half + 1):
        suffixes = [
            [(label, *t) for label, g in table[h] if g < s for t in suffixes[g]]
            for h in range(s + 1)
        ]
    # (prefix, end height) of the first N - half steps, extended one step at
    # a time; left counts the steps after the one taken, so every prefix
    # ends at most half high
    prefixes = [((), 0)]
    for left in range(N - 1, half - 1, -1):
        prefixes = [((*p, label), g) for p, h in prefixes for label, g in table[h] if g <= left]
    for p, h in prefixes:
        for t in suffixes[h]:
            yield p + t


def is_motzkin_walk(steps: Iterable, step: Callable[[object, int], int | None]) -> bool:
    """True when step(label, h) gives each label's height change from the
    height h it starts at, never below 0, and the path ends at 0.  step
    gives None for a label that is no step there, an unhashable one too."""
    h = 0
    for label in steps:
        dh = step(label, h)
        if dh is None or h + dh < 0:
            return False
        h += dh
    return h == 0


def _family_steps(family: str, weigh: Callable[[tuple, int], MPoly]) -> StepWeights:
    """Kernel weights of a family: at height h, the sum of weigh(tag, h)
    over the admissible tags, each q-power level step also marked by a.
    Families R and R* contain no a, so there the a-degree counts those steps."""
    kinds = _family(family)

    def direction(d: str) -> Weight:
        def weight(h: int) -> MPoly:
            total = ZERO
            for tag in _tags(kinds[d], h):
                w = weigh(tag, h)
                total = total + (w * A if tag[0] == "qpow" else w)
            return total

        return weight

    return StepWeights(direction(UP), direction(LEVEL), direction(DOWN))


def sum_R(N: int, n: int) -> MPoly:
    """Sum of weights over the R (equivalently R*) family."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    steps = _family_steps("R", step_weight)
    return coeff_of(motzkin_sum(N, lambda k: steps), "a", n)


def sum_B(n: int) -> MPoly:
    """Sum of weights over the B (equivalently B*) family."""
    steps = _family_steps("B", step_weight)
    return motzkin_sum(n, lambda k: steps)


def zn_paths(N: int) -> MPoly:
    """Partition function as the family-P weighted sum divided by (1-q)^N."""
    if N < 0:
        raise ValueError("N must be >= 0")
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


def _dyck_step(step: object, h: int) -> int | None:
    return _DH[step] if step in (UP, DOWN) else None


def _check_dyck(steps) -> tuple[str, ...]:
    steps = tuple(steps)
    if not is_motzkin_walk(steps, _dyck_step):
        raise MalformedPath(f"not a Dyck path: {steps!r}")
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


def fine_poly_paths(n: int) -> MPoly:
    """F_n(y): peak distribution over Fine paths of length 2n.

    One pass over the 2n steps that counts the prefixes by height, whether
    the last step was up, and peaks.  A down step after an up step makes a
    peak, and one that lands at 0 (a hill) is never taken.  As in
    motzkin_sum, no prefix climbs above the number of steps left.
    """
    if n < 0:
        raise ValueError("path length must be >= 0")
    cur = Counter({(0, False, 0): 1})  # (height, last step up, peaks) -> prefixes
    for left in range(2 * n - 1, -1, -1):
        nxt: Counter = Counter()
        for (h, up, k), c in cur.items():
            if h < left:
                nxt[h + 1, True, k] += c
            if h > 1 or (h == 1 and not up):
                nxt[h - 1, False, k + up] += c
        cur = nxt
    # every whole path ends at height 0, after a down step unless it is empty
    return MPoly({(k, 0, 0, 0): c for (_, _, k), c in cur.items()})


# Returns to height 0 as a step weight: a on every down step from height 1.
_RETURNS_A = StepWeights(up=lambda h: ONE, level=None, down=lambda h: A if h == 1 else ONE)


def dyck_pair_sum_q0(N: int) -> MPoly:
    """Sum of b^ret(D1) a^ret(D2) over Dyck pairs with lengths adding to 2N.

    Equals the partition function at y = 1, q = 0.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    sums = [motzkin_sum(2 * m, lambda k: _RETURNS_A) for m in range(N + 1)]
    return sum((substitute(sums[k], "a", B) * sums[N - k] for k in range(N + 1)), ZERO)
