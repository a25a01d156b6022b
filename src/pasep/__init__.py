"""Exact combinatorics of the three-parameter PASEP partition function.

The partition function of the open asymmetric exclusion process with
injection rate alpha, ejection rate beta, left-hop rate q and fugacity y is
computed here as an exact polynomial in a = 1/alpha, b = 1/beta, y and q,
by nine independent routes (closed formula, transfer matrices, two normal
orderings, two permutation statistics, permutation tableaux, Laguerre
histories, weighted path families), together with the bijections, moment
formulas and classical-sequence specializations tying them together.
"""

from .polyring import (
    MPoly,
    NotDivisible,
    DegreeTooHigh,
    A,
    B,
    ONE,
    Q,
    Y,
    ZERO,
    ALPHA_TILDE,
    BETA_TILDE,
    canonical_string,
    coeff_of,
    eval_rational,
    exact_div_pow_one_minus_q,
    exact_div_var,
    monomial,
    parse_poly,
    substitute,
    y_reflect,
)
from .qtools import binomial, q_binomial, q_int, q_pochhammer_eval, touchard_M
from .perms import (
    PermStats,
    alternating_E,
    enumerate_permutations,
    perm_string,
    stats,
    tilde,
    zn_perm_asc312,
    zn_perm_wexcr,
)
from .tableaux import (
    PermutationTableau,
    enumerate_tableaux,
    tableau_stats,
    zn_tableaux,
)
from .paths import (
    LengthMismatch,
    MalformedPath,
    StepWeights,
    dyck_pair_sum_q0,
    enumerate_laguerre,
    fine_poly_paths,
    history_weight,
    jfraction_moment,
    peaks,
    returns,
    sum_B,
    sum_R,
    zn_histories,
    zn_paths,
)
from .bijections import (
    combine_paths,
    decompose_path,
    foata_zeilberger,
    foata_zeilberger_inverse,
    francon_viennot,
    francon_viennot_inverse,
)
from .ansatz import (
    hatted_coeffs,
    normal_order,
    state_weight,
    zn_hatted,
    zn_matrix,
    zn_normal,
)
from .formulas import (
    B_formula,
    R_formula,
    R_y1,
    SingularPoint,
    asc_mom_closed,
    fine_from_Z,
    q_eulerian,
    q_stirling2,
    q_tangent_secant,
    stanton_moment_eval,
    zn_cas1,
    zn_closed,
    zn_product_y1q1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
