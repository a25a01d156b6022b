import itertools
import math
import random
from collections import Counter, namedtuple
from functools import partial

import pytest

from pasep.ansatz import hatted_coeffs, normal_order, zn_hatted, zn_matrix, zn_normal
from pasep.bijections import L2, _bicolor_options, is_valid_bicolor
from pasep.formulas import (
    ASC_HALVED,
    B_formula,
    R_formula,
    SHIFTED_Z,
    zn_closed,
)
from pasep.paths import (
    DOWN,
    LEVEL,
    UP,
    MalformedPath,
    StepWeights,
    _FAMILIES,
    _TAGS,
    _check_dyck,
    _dyck_options,
    _family_options,
    _history_key,
    _laguerre_options,
    _q_levels,
    count_family,
    dyck_pair_sum_q0,
    enumerate_B_star,
    enumerate_PN,
    enumerate_R_star,
    enumerate_dyck,
    enumerate_laguerre,
    fine_poly_paths,
    history_scan,
    history_weight,
    is_fine,
    is_valid_family_path,
    is_valid_history,
    jfraction_moment,
    motzkin_walks,
    path_weight,
    peaks,
    returns,
    step_weight,
    step_weight_string,
    sum_B,
    sum_R,
    zn_histories,
    zn_paths,
)
from pasep.perms import enumerate_alternating, enumerate_permutations, zn_perm_asc312, zn_perm_wexcr
from pasep.polyring import (
    ALPHA_TILDE,
    BETA_TILDE,
    A,
    B,
    MPoly,
    ONE,
    Q,
    Y,
    ZERO,
    canonical_string,
    exact_div_pow_one_minus_q,
    monomial,
    substitute,
)
from pasep.tableaux import enumerate_tableaux, zn_tableaux

FIG1_HISTORY = (
    (UP, 1, 0), (UP, 1, 1), (LEVEL, 0, 0), (UP, 1, 0), (LEVEL, 1, 3),
    (DOWN, 0, 2), (DOWN, 0, 0), (LEVEL, 1, 1), (DOWN, 0, 0),
)


def test_history_counts_are_factorials():
    assert list(enumerate_laguerre(0)) == [()]
    assert sum(1 for _ in enumerate_laguerre(2)) == 2
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_laguerre(n)) == math.factorial(n)


def test_histories_are_valid():
    for n in range(6):
        for h in enumerate_laguerre(n):
            assert is_valid_history(h)


# labels a table lookup finds by equality (bool, float, a tuple subclass)
# or cannot hash (list, set), wrong-sized tuples, and a string that unpacks
# to three letters
_ODD_STEPS = [
    (UP, True, 0), (LEVEL, 1.0, 0.0), namedtuple("Step", "d delta i")(UP, 1, 0), (UP, 1, 0.5),
    (UP, 1, "0"), (UP, 1, [0]), (UP, [1], 0), [UP, 1, 0], {UP, 1, 0},
    (UP, 1), (UP, 1, 0, 0), "U10", (UP, 1, 10**30),
]
_STEPS = [(d, delta, i) for d in (UP, LEVEL, DOWN, "X") for delta in (0, 1, 2) for i in (-1, 0, 1, 2)]


class Letter(str):
    pass


# the same for family steps, with tags too short, too long or not tuples
_ODD_FAMILY_STEPS = [
    (UP, ("frac",)), (UP, ("frac", True)), (UP, ("frac", 1.0)), (UP, ("one", 0)), (UP, ("frac", [0])),
    (UP, ("bogus",)), [LEVEL, ("oney",)], (LEVEL, ["oney"]), namedtuple("Step", "d tag")(LEVEL, ("oney",)),
    (Letter(UP), ("frac", 0)), (UP, ("frac", 0.5)), (UP, ("frac", "0")), (UP, ("frac", 0, 0)), (UP, ()),
    (UP, "frac"), (UP,), (LEVEL, ("oney",), 0), ([UP], ("one",)), (DOWN, ("y",), ("y",)), "Uy", (True, ("one",)),
]
_FAMILY_STEPS = [
    (d, tag) for d in (UP, LEVEL, DOWN, "X") for tag in [*zip(_TAGS), *(("frac", i) for i in (-1, 0, 1, 2))]
]
_LETTERS = [UP, LEVEL, DOWN, "X", L2, Letter(UP), Letter(L2), [UP], {DOWN}, (UP,), 1, True, None, "UD"]


def _is_dyck(steps):
    try:
        _check_dyck(steps)
    except MalformedPath:
        return False
    return True


# each kind of path: its validator, its options and the labels its walks draw on
RULE_KINDS = {
    "laguerre": (is_valid_history, _laguerre_options, _STEPS + _ODD_STEPS),
    **{
        name: (partial(is_valid_family_path, family=name), partial(_family_options, kinds),
               _FAMILY_STEPS + _ODD_FAMILY_STEPS)
        for name, kinds in _FAMILIES.items()
    },
    "dyck": (_is_dyck, _dyck_options, _LETTERS),
    "bicolor": (is_valid_bicolor, _bicolor_options, _LETTERS),
}


def _table_walk(steps, tables):
    """The check by options table: every step must be a key of
    tables[h] = dict(options(h)) at the height h it starts from, and the path
    must stay at or above 0 and end at 0."""
    h = 0
    for label in steps:
        try:
            dh = tables[h].get(label)
        except TypeError:  # an unhashable label
            return False
        if dh is None or h + dh < 0:
            return False
        h += dh
    return h == 0


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_step_rule_matches_the_options_table(kind):
    # each kind's validator checks by its step rule what its options list
    valid, options, labels = RULE_KINDS[kind]
    walks = [(a, b) for a in labels for b in labels]
    rng = random.Random(27)
    walks += [tuple(rng.choice(labels) for _ in range(rng.randrange(3, 9))) for _ in range(20000)]
    listed = [w for n in range(9) for w in itertools.islice(motzkin_walks(n, options), 100)]
    walks += [w + tail for w in listed for tail in [(), *zip(labels)]]
    tables = [dict(options(h)) for h in range(9)]
    accepted = 0
    for w in walks:
        want = _table_walk(w, tables)
        assert valid(w) is want, w
        accepted += want
    assert accepted >= len(listed) > 20


def test_history_weight_figure():
    assert history_weight(()) == ONE
    assert history_weight(FIG1_HISTORY) == monomial(1, ey=5, eq=7)


def test_history_type_flags():
    _, _, type1, type2 = history_scan(FIG1_HISTORY)
    # first step of any nonempty history is type 1; the figure's permutation
    # has 4 left-to-right maxima, hence 4 type-1 steps
    assert type1 >> 1 & 1
    assert type1.bit_count() == 4
    assert type2.bit_count() == 2
    assert history_scan(()) == (0, 0, 0, 0)


def test_history_key_matches_type_flags():
    # type 1: weight y q^h at starting height h; type 2: weight q^(h-1)
    for N in range(6):
        for steps in enumerate_laguerre(N + 1):
            type1, type2, h = [], [], 0
            for k, (d, delta, i) in enumerate(steps, start=1):
                if delta == 1 and i == h:
                    type1.append(k)
                if delta == 0 and i == h - 1:
                    type2.append(k)
                h += {UP: 1, LEVEL: 0, DOWN: -1}[d]
            masks = tuple(sum(1 << k for k in ks) for ks in (type1, type2))
            assert history_scan(steps)[2:] == masks
            late2 = sum(1 for k in type2 if k > type1[-1])
            ey = sum(delta for _, delta, _ in steps)
            eq = sum(i for _, _, i in steps)
            assert _history_key(steps) == (ey, eq, late2, len(type1) - 1), steps


def test_zn_histories_matches():
    assert canonical_string(zn_histories(1)) == "y*b + a"
    for N in range(6):
        assert zn_histories(N) == zn_perm_wexcr(N)


def test_unknown_step_tag_is_rejected():
    for resolve in (step_weight, step_weight_string):
        with pytest.raises(ValueError, match="unknown step tag"):
            resolve(("bogus",), 0)


def test_family_P_small():
    paths1 = list(enumerate_PN(1))
    assert len(paths1) == 2
    assert {p[0][1][0] for p in paths1} == {"oney", "ab"}


def test_family_P_weight_sum():
    for N in range(7):
        total = ZERO
        for p in enumerate_PN(N):
            assert is_valid_family_path(p, "P")
            total = total + path_weight(p)
        assert exact_div_pow_one_minus_q(total, N) == zn_closed(N)


def test_sum_R_against_formula():
    for N in range(6):
        for n in range(N + 1):
            assert sum_R(N, n) == R_formula(N, n)


def test_sum_B_against_formula():
    assert sum_B(1) == ALPHA_TILDE + Y * BETA_TILDE
    for n in range(6):
        assert sum_B(n) == B_formula(n)


def test_starred_enumerations_refine_sums():
    for N in range(5):
        for n in range(N + 1):
            total = ZERO
            for p in enumerate_R_star(N, n):
                assert is_valid_family_path(p, "R*") and _q_levels(p) == n
                total = total + path_weight(p)
            assert total == sum_R(N, n)
    for n in range(5):
        total = ZERO
        for p in enumerate_B_star(n):
            assert is_valid_family_path(p, "B*")
            total = total + path_weight(p)
        assert total == sum_B(n)
    assert sum(1 for _ in enumerate_B_star(0)) == 1


def test_zn_paths_matches_closed():
    for N in range(7):
        assert zn_paths(N) == zn_closed(N)


# Core paths: up steps of weight 1 or -q^(h+1), level steps q^h, down steps
# y (the y-bookkeeping of the family-R paths they are split off from), with
# no peak whose up step has weight 1.
CORE_OPTIONS = (
    ((UP, ("one",)), 1), ((UP, ("negq",)), 1), ((LEVEL, ("qpow",)), 0), ((DOWN, ("y",)), -1)
)


def core_sum(length, n_levels):
    total = ZERO
    for p in motzkin_walks(length, lambda h: CORE_OPTIONS):
        if _q_levels(p) == n_levels and not any(
            s == (UP, ("one",)) and t[0] == DOWN for s, t in zip(p, p[1:])
        ):
            total = total + path_weight(p)
    return total


def test_core_family_closed_form():
    # sum over core paths of length n + 2i with n levels
    from pasep.qtools import q_binomial

    for n in range(5):
        for i in range(4):
            want = monomial((-1) ** i, ey=i, eq=i * (i + 1) // 2) * q_binomial(n + i, i)
            assert core_sum(n + 2 * i, n) == want, (n, i)


def test_prefix_core_factorization():
    # the R-family sum splits over prefixes and core paths
    from pasep.qtools import motzkin_prefix_gf

    for N in range(6):
        for n in range(N + 1):
            total = ZERO
            for i in range((N - n) // 2 + 1):
                total = total + motzkin_prefix_gf(N, n + 2 * i) * core_sum(n + 2 * i, n)
            assert total == sum_R(N, n), (N, n)


def test_count_family_matches_enumeration():
    for N in range(5):
        assert count_family(N, "P") == sum(1 for _ in enumerate_PN(N))


def test_unknown_family_is_rejected():
    b_path = ((UP, ("one",)), (DOWN, ("negab",)))
    assert is_valid_family_path(b_path, "B")
    for call in (
        lambda: count_family(4, "nonsense"),
        lambda: count_family(0, "nonsense"),
        lambda: is_valid_family_path(b_path, "nonsense"),
        lambda: is_valid_family_path((), "nonsense"),
    ):
        with pytest.raises(ValueError, match="unknown path family"):
            call()


@pytest.mark.parametrize(
    "build",
    [
        sum_B,
        zn_paths,
        zn_matrix,
        lambda N: jfraction_moment(SHIFTED_Z, N),
        zn_closed,
        normal_order,
        zn_normal,
        zn_hatted,
        hatted_coeffs,
        zn_perm_wexcr,
        zn_perm_asc312,
        zn_tableaux,
        zn_histories,
        lambda n: list(enumerate_laguerre(n)),
        lambda n: list(enumerate_tableaux(n)),
        dyck_pair_sum_q0,
        fine_poly_paths,
        enumerate_permutations,
        enumerate_alternating,
    ],
    ids=[
        "sum_B",
        "zn_paths",
        "zn_matrix",
        "jfraction_moment",
        "zn_closed",
        "normal_order",
        "zn_normal",
        "zn_hatted",
        "hatted_coeffs",
        "zn_perm_wexcr",
        "zn_perm_asc312",
        "zn_tableaux",
        "zn_histories",
        "enumerate_laguerre",
        "enumerate_tableaux",
        "dyck_pair_sum_q0",
        "fine_poly_paths",
        "enumerate_permutations",
        "enumerate_alternating",
    ],
)
def test_negative_length_is_rejected(build):
    with pytest.raises(ValueError):
        build(-1)


def test_jfraction_trivial_and_gaussian():
    rec = StepWeights(lambda h: ONE, None, lambda h: h * ONE)
    assert jfraction_moment(rec, 0) == ONE
    got = [jfraction_moment(rec, N) for N in range(7)]
    assert got == [ONE, ZERO, ONE, ZERO, 3 * ONE, ZERO, 15 * ONE]


def test_jfraction_asc_first_moment():
    assert jfraction_moment(ASC_HALVED, 1) == A + B


def test_jfraction_recovers_partition_function():
    for N in range(6):
        want = (ONE - Q) ** N * substitute(zn_closed(N), "y", ONE)
        assert jfraction_moment(SHIFTED_Z, N) == want


def test_returns_and_peaks():
    assert returns((UP, DOWN, UP, DOWN)) == 2
    assert peaks((UP, DOWN, UP, DOWN)) == 2
    assert returns(()) == 0
    with pytest.raises(MalformedPath):
        returns((DOWN, UP))
    with pytest.raises(MalformedPath):
        peaks((UP, UP))
    with pytest.raises(MalformedPath):
        returns((UP, "X"))


def test_fine_polynomials_frozen():
    assert fine_poly_paths(1) == ZERO
    assert canonical_string(fine_poly_paths(4)) == "y^3 + 4*y^2 + y"
    assert canonical_string(fine_poly_paths(6)) == "y^5 + 13*y^4 + 29*y^3 + 13*y^2 + y"


def test_fine_poly_paths_matches_is_fine_and_peaks():
    for n in range(10):
        want = Counter((peaks(d), 0, 0, 0) for d in enumerate_dyck(n) if is_fine(d))
        assert fine_poly_paths(n) == MPoly(want), n


def test_dyck_pair_sum_matches_returns_over_listed_pairs():
    for N in range(7):
        want = Counter(
            (0, 0, returns(d2), returns(d1))
            for k in range(N + 1)
            for d1 in enumerate_dyck(k)
            for d2 in enumerate_dyck(N - k)
        )
        assert dyck_pair_sum_q0(N) == MPoly(want), N


def test_dyck_pair_sum():
    assert dyck_pair_sum_q0(0) == ONE
    assert dyck_pair_sum_q0(1) == A + B
    for N in range(6):
        z = substitute(substitute(zn_closed(N), "y", ONE), "q", ZERO)
        assert dyck_pair_sum_q0(N) == z


def test_dyck_enumeration_catalan():
    for n in range(7):
        assert sum(1 for _ in enumerate_dyck(n)) == math.comb(2 * n, n) // (n + 1)


def _dfs_walks(N, options):
    """Reference walker: the depth-first recursion, taking a step only when it
    lands at a height from 0 up to the number of steps left."""
    out = []

    def walk(path, h):
        left = N - len(path) - 1
        if left < 0:
            out.append(tuple(path))
            return
        for label, dh in options(h):
            if 0 <= h + dh <= left:
                walk([*path, label], h + dh)

    walk([], 0)
    return out


WALK_OPTIONS = {
    "dyck": lambda h: ((UP, 1), (DOWN, -1)),
    "laguerre": _laguerre_options,
    "P": partial(_family_options, _FAMILIES["P"]),
    "R*": partial(_family_options, _FAMILIES["R*"]),
    "B*": partial(_family_options, _FAMILIES["B*"]),
    "core": lambda h: CORE_OPTIONS,
    "bicolor": _bicolor_options,
}


@pytest.mark.parametrize("kind", WALK_OPTIONS)
def test_walks_match_depth_first_oracle(kind):
    options = WALK_OPTIONS[kind]
    for N in range(9):
        assert list(motzkin_walks(N, options)) == _dfs_walks(N, options), N


def test_walk_edge_cases():
    assert list(motzkin_walks(0, lambda h: ((UP, 1),))) == [()]
    for N in range(1, 6):
        assert list(motzkin_walks(N, lambda h: ((UP, 1),))) == []
    assert sum(1 for _ in enumerate_dyck(12)) == 208012
