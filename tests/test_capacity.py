import math

import numpy as np
import pytest

from mixdisc.capacity import (
    capacity,
    capacity_bound_report,
    capacity_via_scaling,
    n_pow_n_over_factorial,
    scale_to_doubly_stochastic,
)
from mixdisc.core import NotIndecomposable, inv_sqrt_psd, random_psd, spawn_seeds
from mixdisc.discriminant import MatrixTuple, check_doubly_stochastic, eval_polarized
from mixdisc.extremal import random_ds_tuple


def random_tuple(n, seed):
    return MatrixTuple([random_psd(n, s) for s in spawn_seeds(seed, n)])


def _per_matrix_scaling(mats, ds_tol=1e-8):
    """Alternating normalization one slot at a time: the reference for the stacked code."""
    n = len(mats)

    def defect(ms):
        total = np.zeros((n, n), dtype=np.complex128)
        for a in ms:
            total += a
        trace_v = max(abs(float(a.trace().real) - 1.0) for a in ms)
        return trace_v + float(np.max(np.abs(total - np.eye(n))))

    x = np.eye(n, dtype=np.complex128)
    scalars = np.ones(n)
    iterations = 0
    while defect(mats) > ds_tol:
        total = np.zeros((n, n), dtype=np.complex128)
        for a in mats:
            total += a
        l = inv_sqrt_psd(total)
        mats = [(l @ a @ l + (l @ a @ l).conj().T) / 2.0 for a in mats]
        x = l @ x
        traces = np.array([float(a.trace().real) for a in mats])
        mats = [a / tr for a, tr in zip(mats, traces)]
        scalars /= traces
        iterations += 1
    return mats, x, scalars, iterations


class TestCapacity:
    def test_identity_tuple(self):
        # det(sum x_i I) = (sum x)^n, minimized at x = 1 by AM-GM: Cap = n^n.
        for n in (2, 3, 4):
            t = MatrixTuple([np.eye(n)] * n)
            assert capacity(t).value == pytest.approx(float(n**n), rel=1e-8)

    def test_ds_tuple_capacity_one(self):
        for seed in range(3):
            t = random_ds_tuple(3, seed)
            assert capacity(t).value == pytest.approx(1.0, rel=1e-7)

    def test_scaling_invariance(self):
        # Cap(c_i A_i) = prod(c_i) Cap(A).
        t = random_tuple(3, 5)
        c = [2.0, 0.5, 3.0]
        t2 = MatrixTuple([ci * a for ci, a in zip(c, t.matrices)])
        assert capacity(t2).value == pytest.approx(
            math.prod(c) * capacity(t).value, rel=1e-7
        )

    def test_minimizer_product_one(self):
        res = capacity(random_tuple(4, 12))
        assert float(np.prod(res.minimizer_x)) == pytest.approx(1.0, rel=1e-10)


class TestScaling:
    def test_fixture_diag(self):
        t = MatrixTuple([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        res = scale_to_doubly_stochastic(t)
        assert res.ds_defect < 1e-10
        np.testing.assert_allclose(
            res.transform_X, np.eye(2) / math.sqrt(3.0), atol=1e-12
        )
        assert capacity_via_scaling(t) == pytest.approx(9.0, rel=1e-10)

    def test_scaled_tuple_is_ds(self):
        for seed in range(3):
            t = random_tuple(3, 40 + seed)
            res = scale_to_doubly_stochastic(t)
            assert check_doubly_stochastic(res.scaled).is_doubly_stochastic

    def test_reconstruction(self):
        # scaled_i = alpha-normalized s_i X A_i X^H, slot by slot.
        t = random_tuple(3, 41)
        res = scale_to_doubly_stochastic(t)
        for s, a, b in zip(res.trace_scalars, t.matrices, res.scaled.matrices):
            np.testing.assert_allclose(
                s * (res.transform_X @ a @ res.transform_X.conj().T), b, atol=1e-8
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_matrix_reference(self, n):
        for seed in range(3):
            t = random_tuple(n, 300 + 10 * n + seed)
            res = scale_to_doubly_stochastic(t)
            mats, x, scalars, iterations = _per_matrix_scaling(list(t.matrices))
            assert res.iterations == iterations
            np.testing.assert_allclose(res.scaled.matrices, np.array(mats), rtol=0, atol=1e-14)
            np.testing.assert_allclose(res.transform_X, x, rtol=0, atol=1e-14)
            np.testing.assert_allclose(res.trace_scalars, scalars, rtol=1e-14, atol=0)

    def test_decomposable_rejected(self):
        t = MatrixTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(NotIndecomposable):
            scale_to_doubly_stochastic(t)

    def test_two_capacity_routes_agree(self):
        for seed in range(5):
            t = random_tuple(4, 90 + seed)
            assert capacity_via_scaling(t) == pytest.approx(
                capacity(t).value, rel=1e-6
            )


class TestSandwich:
    def test_ratio_extremes(self):
        n = 3
        jn = MatrixTuple([np.eye(n) / n] * n)
        ratio, ok = capacity_bound_report(jn)
        assert ok
        assert ratio == pytest.approx(n_pow_n_over_factorial(n), rel=1e-6)
        diag = MatrixTuple([np.diag([1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)])
        # ratio 1 at the diagonal permutation tuple: Cap = D = 1.
        ratio, ok = capacity_bound_report(diag)
        assert ok
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_random_ds_inside_sandwich(self):
        for seed in range(5):
            t = random_ds_tuple(4, 60 + seed)
            ratio, ok = capacity_bound_report(t)
            assert ok, ratio
