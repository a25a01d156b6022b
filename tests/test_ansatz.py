from itertools import product

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
    """The leading k x k block of a tridiagonal operator, as nested lists."""
    rows = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = m.diag(i)
        if m.sub is not None and i >= 1:
            rows[i][i - 1] = m.sub(i)
        if m.sup is not None and i + 1 < k:
            rows[i][i + 1] = m.sup(i)
    return rows


def test_dim_one_entries():
    assert SCALED_D.diag(0) == (ONE - Q) * B
    assert SCALED_E.diag(0) == (ONE - Q) * A


def test_tridiagonal():
    # (1-q)D is upper and (1-q)E lower bidiagonal, with no zero entry on
    # the diagonals they do have
    assert SCALED_D.sub is None and SCALED_E.sup is None
    for i in range(5):
        assert SCALED_D.diag(i) and SCALED_D.sup(i)
        assert SCALED_E.diag(i) and SCALED_E.sub(i + 1)


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
    c = normal_order(1)
    assert c == {(0, 1): Y, (1, 0): ONE}
    # (yD + E)^2 = y^2 D^2 + y DE + y ED + E^2 with DE = q ED + D + E
    assert normal_order(2) == {
        (0, 2): Y * Y,
        (1, 1): Y * (ONE + Q),
        (0, 1): Y,
        (1, 0): Y,
        (2, 0): ONE,
    }


def test_normal_order_nonnegative_and_assembles():
    for N in range(7):
        coeffs = normal_order(N)
        for (i, j), poly in coeffs.items():
            assert all(c > 0 for _, c in poly.items()), (N, i, j)
        assert zn_normal(N) == zn_closed(N)


def test_hatted_base_cases():
    assert hatted_coeffs(0) == {(0, 0): ONE}
    d1 = hatted_coeffs(1)
    assert d1 == {(0, 1): ONE, (1, 0): ONE}


def test_hatted_closed_form_matches_recurrence():
    for k in range(9):
        d = hatted_coeffs(k)
        for i in range(k + 1):
            for j in range(k + 1):
                assert d.get((i, j), ZERO) == hatted_closed_form(k, i, j), (k, i, j)


def test_zn_hatted_matches():
    for N in range(7):
        assert zn_hatted(N) == zn_closed(N)


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
