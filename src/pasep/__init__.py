"""Exact combinatorics of the three-parameter PASEP partition function.

The partition function of the open asymmetric exclusion process with
injection rate alpha, ejection rate beta, left-hop rate q and fugacity y is
computed here as an exact polynomial in a = 1/alpha, b = 1/beta, y and q,
by nine independent routes (closed formula, transfer matrices, two normal
orderings, two permutation statistics, permutation tableaux, Laguerre
histories, weighted path families), together with the bijections, moment
formulas and classical-sequence specializations tying them together.

`METHODS` names the nine routes, `ROUTES` states each one's kind and cap,
and `zn(N, method)` is the validated entry point to them; everything else
is imported from its module.  The bijections (`pasep.bijections`) and the
cross-validation suites (`pasep.verify`) are not imported here; each loads
when first imported, so a process that only computes Z(N) never compiles
them.
"""

from .polyring import MPoly
from .perms import zn_perm_asc312, zn_perm_wexcr
from .tableaux import zn_tableaux
from .paths import zn_histories, zn_paths
from .ansatz import zn_hatted, zn_matrix, zn_normal
from .formulas import zn_closed

# The nine routes to Z(N), by CLI method name.  `verify.METHODS` is this same
# dict, so the CLI and every verify suite dispatch through one table.
METHODS = {
    "closed": zn_closed,
    "matrix": zn_matrix,
    "normal": zn_normal,
    "hatted": zn_hatted,
    "perm-wex": zn_perm_wexcr,
    "perm-asc": zn_perm_asc312,
    "tableaux": zn_tableaux,
    "histories": zn_histories,
    "paths": zn_paths,
}

# Each route's kind and desk-scale cap, by the same names.  A "fast" route
# takes time polynomial in N; an "enumerative" one visits each of the
# (N+1)! permutations, tableaux or histories.  The cap is the largest N that
# `zn` builds without --force: 9 for the enumerative routes, and for a fast
# one the largest N measured to build cold within a minute and 0.5 GB
# (README, Speed).
ROUTES = {
    "closed": ("fast", 30),
    "matrix": ("fast", 24),
    "normal": ("fast", 30),
    "hatted": ("fast", 30),
    "perm-wex": ("enumerative", 9),
    "perm-asc": ("enumerative", 9),
    "tableaux": ("enumerative", 9),
    "histories": ("enumerative", 9),
    "paths": ("fast", 24),
}


def zn(N: int, method: str) -> MPoly:
    """Z(N) by the named route; ValueError for N < 0 or an unknown method."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method](N)

