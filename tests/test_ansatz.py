import math
import sys
from itertools import product

from pasep import ansatz
from pasep.ansatz import (
    SCALED_D,
    SCALED_E,
    hatted_closed_form,
    hatted_coeffs,
    normal_order,
    state_weight,
    zn_hatted,
    zn_matrix,
    zn_normal,
)
from pasep.formulas import zn_closed
from pasep.polyring import (
    A,
    B,
    ONE,
    Q,
    Y,
    ZERO,
    canonical_string,
    exact_div_pow_one_minus_q,
    monomial,
)


def dense(m, k):
    """The leading k x k block of an operator given as StepWeights, as nested
    lists: M[h+1, h] = up(h), M[h, h] = level(h), M[h-1, h] = down(h)."""
    rows = [[ZERO] * k for _ in range(k)]
    for h in range(k):
        rows[h][h] = m.level(h)
        if m.up is not None and h + 1 < k:
            rows[h + 1][h] = m.up(h)
        if m.down is not None and h >= 1:
            rows[h - 1][h] = m.down(h)
    return rows


def test_dim_one_entries():
    assert SCALED_D.level(0) == (ONE - Q) * B
    assert SCALED_E.level(0) == (ONE - Q) * A


def test_tridiagonal():
    # (1-q)D is upper and (1-q)E lower bidiagonal: D never raises the index
    # and E never lowers it, with no zero entry on the diagonals they do have
    assert SCALED_D.up is None and SCALED_E.down is None
    for h in range(5):
        assert SCALED_D.level(h) and SCALED_D.down(h + 1)
        assert SCALED_E.level(h) and SCALED_E.up(h)


def test_commutation_on_inner_block():
    # Ds Es - q Es Ds = (1-q)(Ds + Es) away from the truncation boundary
    for dim in range(2, 7):
        ds, es = dense(SCALED_D, dim), dense(SCALED_E, dim)
        for i in range(dim - 1):
            for j in range(dim - 1):
                lhs = ZERO
                for k in range(dim):
                    lhs = lhs + ds[i][k] * es[k][j] - Q * es[i][k] * ds[k][j]
                rhs = (ONE - Q) * (ds[i][j] + es[i][j])
                assert lhs == rhs, (dim, i, j)


def test_zn_matrix_matches_closed():
    assert canonical_string(zn_matrix(1)) == "y*b + a"
    for N in range(7):
        assert zn_matrix(N) == zn_closed(N)


def test_normal_order_base():
    # E^i D^j read as a^i b^j
    assert normal_order(0) == ONE
    assert normal_order(1) == Y * B + A
    # (yD + E)^2 = y^2 D^2 + y DE + y ED + E^2 with DE = q ED + D + E
    assert normal_order(2) == Y * Y * B * B + Y * (ONE + Q) * A * B + Y * B + Y * A + A * A


def _normal_order_by_rewriting(N):
    """The normal form of (yD + E)^N by brute force: expand it into words,
    then rewrite the first D E of a word as q E D + D + E until every word
    reads E^i D^j, which is read as a^i b^j."""
    words = {"": ONE}
    for _ in range(N):
        nxt = {}
        for w, c in words.items():
            for letter, f in (("D", Y), ("E", ONE)):
                nxt[w + letter] = nxt.get(w + letter, ZERO) + f * c
        words = nxt
    done = ZERO
    while words:
        w, c = words.popitem()
        k = w.find("DE")
        if k < 0:
            done = done + c * A ** w.count("E") * B ** w.count("D")
            continue
        head, tail = w[:k], w[k + 2 :]
        for v, f in ((head + "ED" + tail, Q), (head + "D" + tail, ONE), (head + "E" + tail, ONE)):
            words[v] = words.get(v, ZERO) + f * c
    return done


def test_normal_order_matches_rewriting():
    for N in range(7):
        assert normal_order(N) == _normal_order_by_rewriting(N), N


def test_normal_order_nonnegative_and_assembles():
    # the packed layout of normal_order rests on these: every coefficient
    # is positive, all of them add up to (N+1)!, the q-degree is
    # floor(N^2/4) and the y-degree N
    for N in range(16):
        terms = list(normal_order(N).items())
        assert all(v > 0 for _, v in terms), N
        assert sum(v for _, v in terms) == math.factorial(N + 1), N
        if N <= 12:
            assert max(e[1] for e, _ in terms) == N * N // 4, N
            assert max(e[0] for e, _ in terms) == N, N
        if N <= 6:
            assert zn_normal(N) == zn_closed(N)


def test_hatted_base_cases():
    # d[m][i, j] read as the a^i b^j part of level m
    assert hatted_coeffs(0) == [ONE]
    assert hatted_coeffs(1) == [ONE, A + B]


def test_hatted_closed_form_matches_recurrence():
    ds = hatted_coeffs(8)
    assert len(ds) == 9
    for k, d in enumerate(ds):
        assert hatted_coeffs(k) == ds[: k + 1]
        want = ZERO
        for i in range(k + 1):
            for j in range(k + 1):
                want = want + hatted_closed_form(k, i, j) * A**i * B**j
        assert d == want, k


def _frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_recurrences_build_without_recursion():
    # c[12] and d[12], which normal_order and hatted_coeffs build from c[0]
    # and d[0] (d on a cleared cache), are built with only 16 frames to
    # spare above this test; a build that recursed once per index (12
    # levels, then the ring operations) would need about 28.
    want = normal_order(12), hatted_coeffs(12)
    ansatz._hatted_d.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 16)
    try:
        got = normal_order(12), hatted_coeffs(12)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_hatted_steps_are_shared_across_calls(monkeypatch):
    # every d[m] is built once, whichever call asks for it first
    steps = []
    step = ansatz._hatted_step
    monkeypatch.setattr(ansatz, "_hatted_step", lambda prev: steps.append(1) or step(prev))
    ansatz._hatted_d.cache_clear()
    hatted_coeffs(10)
    for N in range(11):
        zn_hatted(N)
    assert len(steps) == 10


def test_zn_hatted_matches():
    for N in range(7):
        assert zn_hatted(N) == zn_closed(N)


def test_shifted_routes_match_normal():
    # normal never enters the shifted basis, so it checks from_shifted
    assert zn_closed(14) == zn_hatted(14) == zn_normal(14)


def test_state_weights():
    assert state_weight("E") == A
    assert state_weight("D") == B
    assert state_weight("") == ONE


def test_states_sum_to_partition_function():
    for N in range(7):
        total = ZERO
        for word in product("DE", repeat=N):
            w = "".join(word)
            total = total + monomial(1, ey=w.count("D")) * state_weight(w)
        assert total == zn_closed(N)


def test_state_weight_truncation_independent():
    # <W| t_1 ... t_N |V> on dense matrices of dimension N + 3, larger than
    # any index a length-N product reaches, so the kernel's pruning of
    # heights must leave the weight unchanged
    for N in range(7):
        k = N + 3
        mats = {"D": dense(SCALED_D, k), "E": dense(SCALED_E, k)}
        for word in product("DE", repeat=N):
            row = [ONE] + [ZERO] * (k - 1)
            for ch in word:
                m = mats[ch]
                row = [sum((row[i] * m[i][j] for i in range(k)), ZERO) for j in range(k)]
            want = exact_div_pow_one_minus_q(row[0], N)
            assert state_weight("".join(word)) == want, word
