"""Exact mixed discriminants and permanents of float input, and the error
table of the float routes against them.

    python tests/exact.py

prints, for each route and family, the worst relative error of the route
against the exact value at n <= 8.

Every float is a dyadic rational, so one power of two 2^k turns every
entry of a complex array into a Gaussian integer a + b i (``_gaussian``).
D of a tuple is then the centered polarization
2^(1-n) sum over eps in {+-1}^n with eps_n = +1 of prod(eps) det(M_eps),
M_eps = sum eps_i A_i, with each determinant taken over Z[i] by
fraction-free (Bareiss) elimination (``_det``), whose every division is
exact; a Glynn permanent is the same sum of column-sum products.  Only
Python integers and ``Fraction`` are used: the results are exact, with no
tolerance.  The two QP routes are read on rho_A, the block-diagonal matrix
of a tuple's slots (``helpers.rho_a``), whose blocks are the slots' own
floats, so that QP(rho_A) = D(A) is exact too.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mixdisc.core import _wishart, make_rng  # noqa: E402
from mixdisc.discriminant import (  # noqa: E402
    MatrixTuple,
    eval_double_perm,
    eval_polarized,
    eval_sigma_det,
    eval_signed_permanent,
    eval_tensor,
    permanent,
)
from mixdisc.extremal import random_ds_tuple  # noqa: E402
from mixdisc.genaf import column_repeated  # noqa: E402
from mixdisc.hyperbolic import _random_ds_matrices  # noqa: E402
from mixdisc.pascal import qp_block, qp_tensor  # noqa: E402

from helpers import rho_a  # noqa: E402


def _gaussian(a):
    """The real and imaginary parts of 2^k a as object arrays of Python
    integers, and 2^k, the least power of two that makes them integers."""
    a = np.asarray(a, dtype=np.complex128)
    ratios = [x.as_integer_ratio() for x in np.concatenate([a.real.ravel(), a.imag.ravel()]).tolist()]
    scale = max(q for _, q in ratios)  # each q is a power of two
    ints = np.array([p * (scale // q) for p, q in ratios], dtype=object)
    return ints[: a.size].reshape(a.shape), ints[a.size :].reshape(a.shape), scale


def _det(re, im):
    """det(re + i im) of a square Gaussian-integer matrix (object arrays of
    Python integers) by Bareiss elimination over Z[i], as a pair (real,
    imaginary) of integers."""
    re, im = re.copy(), im.copy()
    n, sign, pr, pi = len(re), 1, 1, 0
    for k in range(n - 1):
        rows = [r for r in range(k, n) if re[r, k] or im[r, k]]
        if not rows:
            return 0, 0
        if rows[0] != k:
            swap = [k, rows[0]]
            re[swap], im[swap], sign = re[swap[::-1]], im[swap[::-1]], -sign
        a, b = re[k, k], im[k, k]
        cr, ci = re[k + 1 :, k, None], im[k + 1 :, k, None]
        rr, ri = re[None, k, k + 1 :], im[None, k, k + 1 :]
        sr, si = re[k + 1 :, k + 1 :], im[k + 1 :, k + 1 :]
        xr = sr * a - si * b - (cr * rr - ci * ri)
        xi = sr * b + si * a - (cr * ri + ci * rr)
        # Divide by the last pivot p: x conj(p) / |p|^2, exact by Sylvester's identity.
        norm = pr * pr + pi * pi
        qr, qi = xr * pr + xi * pi, xi * pr - xr * pi
        assert not any((qr % norm).ravel()) and not any((qi % norm).ravel())
        re[k + 1 :, k + 1 :], im[k + 1 :, k + 1 :] = qr // norm, qi // norm
        pr, pi = a, b
    return sign * re[-1, -1], sign * im[-1, -1]


def _centered(re, im, term):
    """2^(1-n) sum over eps in {+-1}^n with eps_n = +1 of prod(eps)
    term(sum_i eps_i X_i), X_i = re[i] + i im[i], as a pair of integer
    sums before the 2^(1-n)."""
    total_r = total_i = 0
    for signs in product((1, -1), repeat=len(re) - 1):
        eps = np.array(signs + (1,), dtype=object).reshape(-1, *[1] * (re.ndim - 1))
        tr, ti = term((eps * re).sum(0), (eps * im).sum(0))
        s = math.prod(signs)
        total_r, total_i = total_r + s * tr, total_i + s * ti
    return total_r, total_i


def exact_d(mats):
    """D of a complex (n, n, n) stack, exactly: the pair (real, imaginary)
    of ``Fraction``s."""
    re, im, scale = _gaussian(mats)
    n = len(re)
    total_r, total_i = _centered(re, im, _det)
    den = 2 ** (n - 1) * scale**n
    return Fraction(total_r, den), Fraction(total_i, den)


def _column_product(sr, si):
    """prod_j (sr[j] + i si[j]) over Z[i]."""
    pr, pi = 1, 0
    for a, b in zip(sr.tolist(), si.tolist()):
        pr, pi = pr * a - pi * b, pr * b + pi * a
    return pr, pi


def exact_permanent(c):
    """per(c) of a complex (n, n) matrix by Glynn's formula, exactly: the
    pair (real, imaginary) of ``Fraction``s."""
    re, im, scale = _gaussian(c)
    n = len(re)
    total_r, total_i = _centered(re, im, _column_product)
    den = 2 ** (n - 1) * scale**n
    return Fraction(total_r, den), Fraction(total_i, den)


def relative_error(value, exact) -> float:
    """|value - exact| / |exact| for a float or complex value and an exact
    pair (real, imaginary) of ``Fraction``s; exact 0 only against 0."""
    value = complex(value)
    dr, di = Fraction(value.real) - exact[0], Fraction(value.imag) - exact[1]
    size = exact[0] ** 2 + exact[1] ** 2
    if not size:
        return 0.0 if not (dr or di) else math.inf
    return math.sqrt((dr**2 + di**2) / size)


# ---------------------------------------------------------------------------
# the families, at fixed seeds


def wishart_tuples(dims=range(2, 9), seeds=range(5)):
    for n in dims:
        for s in seeds:
            yield f"wishart n={n} s={s}", MatrixTuple(_wishart((n, n, n), s))


# The Wishart family up to the gates of the routes that stop below n = 8.
WISHART_TO = {top: partial(wishart_tuples, range(2, top + 1)) for top in (4, 6, 7)}


def jn_tuples():
    for n in (6, 8):
        for j in (-40, 0, 40):
            yield f"J_{n} 2^{j}", MatrixTuple(np.broadcast_to(np.eye(n) / n * 2.0**j, (n, n, n)))


def ds_tuples():
    for n in range(2, 7):
        for s in range(5):
            yield f"random_ds_tuple n={n} s={s}", random_ds_tuple(n, s)


def scaled_slot_tuples():
    """Item 1 of the ROADMAP: Wishart tuples with slot 1 times 2^13."""
    for n in (6, 8):
        for s in range(5, 8):
            mats = _wishart((n, n, n), s)
            mats[1] *= 2.0**13
            yield f"wishart n={n} s={s}, slot 1 x 2^13", MatrixTuple(mats)


def af_matrices():
    """The three matrices of ``af_lower_bound_experiment(N)``, N = 2..8."""
    for big_n in range(2, 9, 2):
        b = np.eye(big_n) + np.roll(np.eye(big_n), 1, axis=1)
        yield f"af N={big_n} B", b
        for k, alpha in enumerate(([2, 0], [0, 2]), 1):
            yield f"af N={big_n} alpha{k}", column_repeated(b, np.array(alpha * (big_n // 2)))


def ds_matrices():
    for n in range(2, 9):
        for k, c in enumerate(_random_ds_matrices(5, n, make_rng(n))):
            yield f"ds matrix n={n} k={k}", c


# (route, family name, family, asserted by tests/test_exact.py)
TABLE = [
    ("eval_polarized", "wishart n=2..8", wishart_tuples, True),
    ("eval_polarized", "J_n 2^j", jn_tuples, True),
    ("eval_polarized", "random_ds_tuple", ds_tuples, True),
    ("eval_polarized", "slot 1 x 2^13", scaled_slot_tuples, False),
    ("eval_sigma_det", "wishart n=2..8", wishart_tuples, True),
    ("eval_sigma_det", "J_n 2^j", jn_tuples, True),
    ("eval_sigma_det", "random_ds_tuple", ds_tuples, True),
    ("eval_sigma_det", "slot 1 x 2^13", scaled_slot_tuples, False),
    ("eval_double_perm", "wishart n=2..6", WISHART_TO[6], True),
    ("eval_double_perm", "random_ds_tuple", ds_tuples, True),
    ("eval_signed_permanent", "wishart n=2..7", WISHART_TO[7], True),
    ("eval_signed_permanent", "random_ds_tuple", ds_tuples, True),
    ("eval_tensor", "wishart n=2..6", WISHART_TO[6], True),
    ("eval_tensor", "random_ds_tuple", ds_tuples, True),
    ("qp_block", "rho_A, wishart n=2..6", WISHART_TO[6], True),
    ("qp_tensor", "rho_A, wishart n=2..4", WISHART_TO[4], True),
    ("permanent", "af matrices", af_matrices, True),
    ("permanent", "ds matrices", ds_matrices, True),
]
ROUTES = {
    "eval_polarized": eval_polarized,
    "eval_sigma_det": eval_sigma_det,
    "eval_double_perm": eval_double_perm,
    "eval_signed_permanent": eval_signed_permanent,
    "eval_tensor": eval_tensor,
    "qp_block": lambda t: qp_block(rho_a(t)),
    "qp_tensor": lambda t: qp_tensor(rho_a(t)),
    "permanent": permanent,
}


@cache
def cases(family):
    """(name, x, exact value) for each case of ``family``, computed once: D
    of a tuple (and so QP of its rho_A), the permanent of a matrix."""
    return [
        (name, x, exact_d(x.matrices) if isinstance(x, MatrixTuple) else exact_permanent(x))
        for name, x in family()
    ]


def worst(route, family):
    """The largest relative error of ``route`` on ``family`` and its case."""
    return max((relative_error(ROUTES[route](x), value), name) for name, x, value in cases(family))


if __name__ == "__main__":
    print(f"{'route':<23}{'family':<23}{'worst':>10}  case")
    for route, label, family, asserted in TABLE:
        err, case = worst(route, family)
        print(f"{route:<23}{label:<23}{err:>10.2e}  {case}{'' if asserted else '  (not asserted)'}")
