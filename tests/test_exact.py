"""The float routes of D, of QP and of the permanent against exact values.

``exact.py`` computes D and Glynn permanents of float input exactly, in
Python integers over Z[i], and so QP of rho_A, which is D.  Each route's
worst relative error on each family, at fixed seeds, must stay within its
bound: the smallest power of ten at least ten times the worst measured
when the bound was set, and never above the documented accuracy (1e-8;
1e-12 on J_n).  The slot-scaled
Wishart family of ROADMAP item 1 is reported by ``python tests/exact.py``
but not asserted here.
"""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import exact

# (route, family label) -> bound; the measured worst is in the comment.
BOUNDS = {
    ("eval_polarized", "wishart n=2..8"): 1e-13,  # 7.3e-15, n = 8
    ("eval_polarized", "J_n 2^j"): 1e-12,  # 1.6e-13, J_8 2^40; the documented bound
    ("eval_polarized", "random_ds_tuple"): 1e-14,  # 5.4e-16
    ("eval_sigma_det", "wishart n=2..8"): 1e-14,  # 3.3e-16
    ("eval_sigma_det", "J_n 2^j"): 1e-12,  # 4.0e-14, J_8 2^40
    ("eval_sigma_det", "random_ds_tuple"): 1e-14,  # 2.4e-16
    ("eval_double_perm", "wishart n=2..6"): 1e-14,  # 1.4e-16
    ("eval_double_perm", "random_ds_tuple"): 1e-14,  # 1.3e-16, one correctly rounded total
    ("eval_signed_permanent", "wishart n=2..7"): 1e-14,  # 9.2e-16, n = 6
    ("eval_signed_permanent", "random_ds_tuple"): 1e-14,  # 5.0e-16
    ("eval_tensor", "wishart n=2..6"): 1e-14,  # 1.6e-16
    ("eval_tensor", "random_ds_tuple"): 1e-14,  # 1.3e-16
    ("qp_block", "rho_A, wishart n=2..6"): 1e-13,  # 3.5e-15, n = 6: the kernel's D of sigma = id
    ("qp_tensor", "rho_A, wishart n=2..4"): 1e-14,  # 1.6e-16
    ("permanent", "af matrices"): 0.0,  # integer matrices: every term is exact
    ("permanent", "ds matrices"): 1e-14,  # 7.0e-16
}
ASSERTED = [(route, label, family) for route, label, family, asserted in exact.TABLE if asserted]


def test_every_asserted_row_has_a_bound():
    assert set(BOUNDS) == {(route, label) for route, label, _ in ASSERTED}


@pytest.mark.parametrize("route, label, family", ASSERTED, ids=[f"{r}-{lab}" for r, lab, _ in ASSERTED])
def test_route_within_its_bound_of_the_exact_value(route, label, family):
    err, case = exact.worst(route, family)
    assert err <= BOUNDS[route, label], case


def test_the_exact_values_by_known_identities():
    # D(c I, .., c I) = n! c^n, with c = fl(2^-40 / n) exactly; per(J) = n!
    # for the all-ones J; D of the diagonal tuple of C's columns is per(C);
    # a zero pivot takes a row swap.
    for n in (2, 5):
        c = 2.0**-40 / n
        assert exact.exact_d(np.broadcast_to(np.eye(n) * c, (n, n, n))) == (factorial(n) * Fraction(c) ** n, 0)
        assert exact.exact_permanent(np.ones((n, n))) == (factorial(n), 0)
    rng = np.random.default_rng(0)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert exact.exact_d(np.array([np.diag(col) for col in c.T])) == exact.exact_permanent(c)
    swap = np.array([[0, 1], [1, 0]], dtype=object)
    assert exact._det(swap, swap * 0) == (-1, 0)
