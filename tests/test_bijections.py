import itertools
import random
import tracemalloc

import pytest

from pasep.bijections import (
    L2,
    bicolor_mark_counts,
    bicolor_to_dyck_pair,
    combine_paths,
    decompose_path,
    enumerate_bicolor,
    foata_zeilberger,
    foata_zeilberger_inverse,
    francon_viennot,
    francon_viennot_inverse,
    is_valid_bicolor,
)
from pasep.paths import (
    DOWN,
    LEVEL,
    UP,
    enumerate_B_star,
    enumerate_PN,
    enumerate_R_star,
    history_scan,
    history_weight,
    is_valid_family_path,
    is_valid_history,
    path_weight,
    returns,
)
from pasep.perms import enumerate_permutations, stats
from pasep.polyring import monomial

from oracles import inverse

FIG1_PERM = (6, 7, 2, 5, 8, 1, 4, 9, 3)
FIG1_HISTORY = (
    (UP, 1, 0), (UP, 1, 1), (LEVEL, 0, 0), (UP, 1, 0), (LEVEL, 1, 3),
    (DOWN, 0, 2), (DOWN, 0, 0), (LEVEL, 1, 1), (DOWN, 0, 0),
)
FIG3_PERM = (4, 3, 7, 1, 2, 6, 5)
FIG3_HISTORY = (
    (UP, 1, 0), (LEVEL, 1, 1), (UP, 1, 0), (DOWN, 0, 0), (UP, 1, 1),
    (DOWN, 0, 1), (DOWN, 0, 0),
)
FIG4_PERM = (8, 1, 2, 5, 6, 3, 9, 7, 4)


def _fz_by_scan(sigma):
    """Foata-Zeilberger labels by their definition, one scan per step."""
    n = len(sigma)
    inv = inverse(sigma)
    steps = []
    for i in range(1, n + 1):
        si, pre = sigma[i - 1], inv[i - 1]
        d = UP if pre > i and si > i else DOWN if pre < i and si < i else LEVEL
        if i <= si:
            steps.append((d, 1, sum(1 for k in range(1, i) if i <= sigma[k - 1] < si)))
        else:
            steps.append((d, 0, sum(1 for k in range(i + 1, n + 1) if si < sigma[k - 1] < i)))
    return tuple(steps)


def _fv_by_scan(sigma):
    """Francon-Viennot labels by their definition, one scan per value."""
    n = len(sigma)
    inv = inverse(sigma)
    steps = []
    for k in range(1, n + 1):
        j = inv[k - 1]
        left = sigma[j - 2] if j >= 2 else 0
        right = sigma[j] if j <= n - 1 else n + 1
        d = UP if left > k < right else DOWN if left < k > right else LEVEL
        i31 = sum(1 for i in range(1, j - 1) if sigma[i] < k < sigma[i - 1])
        steps.append((d, 1 if k < right else 0, i31))
    return tuple(steps)


def _sample_permutations():
    """Every permutation of up to 7 letters, then seeded random ones up to 30."""
    rng = random.Random(26)
    yield from (s for n in range(8) for s in enumerate_permutations(n))
    yield from (tuple(rng.sample(range(1, n + 1), n)) for n in range(8, 31) for _ in range(40))


def test_fz_and_fv_labels_match_their_per_step_scans():
    for sigma in _sample_permutations():
        assert foata_zeilberger(sigma) == _fz_by_scan(sigma), sigma
        assert francon_viennot(sigma) == _fv_by_scan(sigma), sigma


@pytest.mark.parametrize("bijection", [foata_zeilberger, francon_viennot])
@pytest.mark.parametrize("sigma", [(1, 1), (2, 3), (0, 1), (1, 2, 2), (2,), (1, 3, 2, 5)])
def test_bijections_reject_non_permutations(bijection, sigma):
    with pytest.raises(ValueError, match="not a permutation"):
        bijection(sigma)


def test_fz_reproduces_crossing_figure():
    assert foata_zeilberger(FIG1_PERM) == FIG1_HISTORY
    assert foata_zeilberger_inverse(FIG1_HISTORY) == FIG1_PERM


def test_fz_identity_permutation():
    n = 5
    ident = tuple(range(1, n + 1))
    hist = foata_zeilberger(ident)
    assert hist == tuple((LEVEL, 1, 0) for _ in range(n))
    assert foata_zeilberger_inverse(hist) == ident


def test_fz_round_trip_exhaustive():
    for n in range(7):
        for sigma in enumerate_permutations(n):
            h = foata_zeilberger(sigma)
            assert is_valid_history(h)
            assert foata_zeilberger_inverse(h) == sigma


def test_long_history_is_checked_without_per_height_tables():
    # this 1000-letter permutation's history climbs to height 252; a
    # label table per height reached would leave megabytes behind
    rng = random.Random(1000)
    h = foata_zeilberger(tuple(rng.sample(range(1, 1001), 1000)))
    tracemalloc.start()
    try:
        assert is_valid_history(h)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2_000_000, kept
    assert not is_valid_history(h[:-1])


def test_long_family_path_is_checked_without_per_height_tables():
    # this family-P path climbs to height 500, where a label table per height
    # reached would hold about 125,000 split up steps in all
    p = ((UP, ("frac", 0)),) * 500 + ((DOWN, ("y",)),) * 500
    tracemalloc.start()
    try:
        assert is_valid_family_path(p, "P")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000, kept
    assert not is_valid_family_path(p[:-1], "P")


def test_fz_weight_law():
    for n in range(7):
        for sigma in enumerate_permutations(n):
            st = stats(sigma)
            assert history_weight(foata_zeilberger(sigma)) == monomial(1, ey=st.wex, eq=st.cr)


def test_fv_reproduces_pattern_figure():
    assert francon_viennot(FIG3_PERM) == FIG3_HISTORY
    assert francon_viennot_inverse(FIG3_HISTORY) == FIG3_PERM


def test_fv_large_figure():
    h = francon_viennot(FIG4_PERM)
    st = stats(FIG4_PERM)
    assert history_weight(h) == monomial(1, ey=5, eq=7)
    assert (st.s, st.t, st.asc, st.p31_2) == (3, 4, 5, 7)
    _, _, type1, type2 = history_scan(h)
    assert type1.bit_count() == 4
    assert (type2 >> type1.bit_length()).bit_count() == 2
    assert francon_viennot_inverse(h) == FIG4_PERM


def test_fv_identity_from_level_steps():
    n = 5
    hist = tuple((LEVEL, 1, 0) for _ in range(n))
    assert francon_viennot_inverse(hist) == tuple(range(1, n + 1))


def test_fv_round_trip_exhaustive():
    for n in range(7):
        for sigma in enumerate_permutations(n):
            h = francon_viennot(sigma)
            assert is_valid_history(h)
            assert francon_viennot_inverse(h) == sigma


# every (direction, delta, i) step with delta in 0, 1 and i in 0 .. 2
HISTORY_ALPHABET = list(itertools.product((UP, LEVEL, DOWN), (0, 1), range(3)))


@pytest.mark.parametrize("inverse", [foata_zeilberger_inverse, francon_viennot_inverse])
def test_insertion_inverses_raise_exactly_off_the_histories(inverse):
    for length in range(4):
        for h in itertools.product(HISTORY_ALPHABET, repeat=length):
            if is_valid_history(h):
                assert sorted(inverse(h)) == list(range(1, length + 1))
            else:
                with pytest.raises(ValueError):
                    inverse(h)


def test_fv_weight_law():
    for n in range(7):
        for sigma in enumerate_permutations(n):
            st = stats(sigma)
            h = francon_viennot(sigma)
            assert history_weight(h) == monomial(1, ey=st.asc, eq=st.p31_2)


FIG5_H1 = (
    (UP, ("frac", 0)), (LEVEL, ("qpow",)), (UP, ("frac", 1)), (LEVEL, ("qpow",)),
    (LEVEL, ("qpow",)), (UP, ("frac", 0)), (DOWN, ("y",)), (DOWN, ("y",)),
    (LEVEL, ("qpow",)), (DOWN, ("y",)), (LEVEL, ("qpow",)),
)
FIG5_H2 = (
    (UP, ("frac", 0)), (LEVEL, ("ab",)), (UP, ("frac", 0)),
    (DOWN, ("negab",)), (DOWN, ("negab",)),
)
FIG5_COMBINED = (
    (UP, ("frac", 0)), (UP, ("frac", 1)), (UP, ("frac", 1)), (LEVEL, ("ab",)),
    (UP, ("frac", 2)), (UP, ("frac", 0)), (DOWN, ("y",)), (DOWN, ("y",)),
    (DOWN, ("negab",)), (DOWN, ("y",)), (DOWN, ("negab",)),
)


def test_combine_reproduces_figure():
    assert combine_paths(FIG5_H1, FIG5_H2) == FIG5_COMBINED
    assert decompose_path(FIG5_COMBINED) == (FIG5_H1, FIG5_H2)


def test_combine_empty_and_single_level():
    assert combine_paths((), ()) == ()
    p = ((LEVEL, ("oney",)),)
    assert decompose_path(p) == (p, ())


def test_combine_decompose_round_trip():
    for N in range(4):
        for n in range(N + 1):
            b_paths = list(enumerate_B_star(n))
            for h1 in enumerate_R_star(N, n):
                w1 = path_weight(h1)
                for h2 in b_paths:
                    p = combine_paths(h1, h2)
                    assert is_valid_family_path(p, "P")
                    assert path_weight(p) == w1 * path_weight(h2)
                    assert decompose_path(p) == (h1, h2)
        for p in enumerate_PN(N):
            h1, h2 = decompose_path(p)
            assert combine_paths(h1, h2) == p


def test_combine_paths_raises_off_its_domain():
    # h2 is the right length but no B* path: it never comes back down
    with pytest.raises(ValueError):
        combine_paths(((LEVEL, ("qpow",)),), ((UP, ("frac", 0)),))
    # h1 is no R* path: it goes below height 0
    with pytest.raises(ValueError):
        combine_paths(((DOWN, ("y",)), (UP, ("frac", 0))), ())


# the steps of family P, the up steps with indices 0 .. 2
P_ALPHABET = [
    *((UP, ("frac", i)) for i in range(3)),
    (LEVEL, ("oney",)), (LEVEL, ("ab",)), (DOWN, ("y",)), (DOWN, ("negab",)),
]


def test_decompose_path_raises_exactly_off_family_P():
    for length in range(5):
        for p in itertools.product(P_ALPHABET, repeat=length):
            if is_valid_family_path(p, "P"):
                h1, h2 = decompose_path(p)
                assert combine_paths(h1, h2) == p
            else:
                with pytest.raises(ValueError):
                    decompose_path(p)


FIG2_BICOLOR = (UP, L2, DOWN, LEVEL, UP, LEVEL, UP, DOWN, L2, DOWN)
FIG2_D1 = (UP, UP, DOWN, UP, DOWN, DOWN, UP, DOWN)
FIG2_D2 = (UP, UP, DOWN, UP, UP, DOWN, DOWN, DOWN, UP, DOWN)


def test_bicolor_figure():
    d1, d2 = bicolor_to_dyck_pair(FIG2_BICOLOR)
    assert d1 == FIG2_D1
    assert d2 == FIG2_D2
    nbeta, nalpha = bicolor_mark_counts(FIG2_BICOLOR)
    assert nbeta == returns(d1) + 1
    assert nalpha == returns(d2)


def test_bicolor_empty():
    assert bicolor_to_dyck_pair(()) == ((), ())


@pytest.mark.parametrize(
    "steps",
    [(DOWN,), (L2, L2), ("X",), None, "", 0],
    ids=["down-at-0", "L2-at-0", "unknown", "none", "empty-str", "zero"],
)
def test_bicolor_maps_reject_invalid_paths(steps):
    for bicolor_map in (bicolor_to_dyck_pair, bicolor_mark_counts):
        with pytest.raises(ValueError, match="not a valid bicolor Motzkin path"):
            bicolor_map(steps)


def test_bicolor_mark_preservation():
    for m in range(7):
        for steps in enumerate_bicolor(m):
            d1, d2 = bicolor_to_dyck_pair(steps)
            if steps:
                assert len(d1) + len(d2) == 2 * len(steps) - 2
            nbeta, nalpha = bicolor_mark_counts(steps)
            if steps:
                assert nbeta == returns(d1) + 1
                assert nalpha == returns(d2)



@pytest.mark.parametrize(
    "check, args",
    [
        pytest.param(is_valid_history, (((DOWN, 0, 0),),), id="history-down-at-0"),
        pytest.param(is_valid_family_path, (((DOWN, ("y",)),), "R"), id="R-down-at-0"),
        pytest.param(is_valid_bicolor, ((DOWN,),), id="bicolor-down-at-0"),
        pytest.param(is_valid_history, (((LEVEL, 0, 0),),), id="history-level0-at-0"),
        pytest.param(is_valid_history, (((UP, 1, 1), (DOWN, 0, 0)),), id="history-up-i-above-h"),
        pytest.param(is_valid_history, (((UP, 1, 0), (LEVEL, 1, 2), (DOWN, 0, 0)),),
                     id="history-level-i-above-h"),
        pytest.param(is_valid_family_path, (((UP, ("frac", 1)), (DOWN, ("y",))), "P"),
                     id="P-frac-i-above-h"),
        pytest.param(is_valid_history, (((UP, 1, 0), (LEVEL, 5, 0), (DOWN, 0, 0)),),
                     id="history-level-delta-5"),
        pytest.param(is_valid_history, ((("X", 1, 0),),), id="history-unknown-direction"),
        pytest.param(is_valid_family_path, ((("X", ("oney",)),), "P"), id="P-unknown-direction"),
        pytest.param(is_valid_bicolor, (("X",),), id="bicolor-unknown-direction"),
        pytest.param(is_valid_family_path, (((UP, ("frac", 0)), (DOWN, ("y",))), "R"),
                     id="R-frac-up"),
        pytest.param(is_valid_family_path, (((LEVEL, ("oney",)),), "B"), id="B-oney-level"),
        pytest.param(is_valid_family_path, (((UP, ("one",)), (DOWN, ("y",))), "R*"),
                     id="Rstar-one-up"),
        pytest.param(is_valid_history, (((UP, 1, 0),),), id="history-ends-above-0"),
        pytest.param(is_valid_family_path, (((UP, ("frac", 0)),), "B*"), id="Bstar-ends-above-0"),
        pytest.param(is_valid_bicolor, ((UP, LEVEL),), id="bicolor-ends-above-0"),
        pytest.param(is_valid_bicolor, ((L2,),), id="bicolor-L2-at-0"),
        pytest.param(is_valid_bicolor, ((UP, DOWN, L2),), id="bicolor-L2-back-at-0"),
        pytest.param(is_valid_history, ([[UP, 1, 0], [DOWN, 0, 0]],), id="history-unhashable-steps"),
    ],
)
def test_validators_reject_invalid_paths(check, args):
    assert check(*args) is False
