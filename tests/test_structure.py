import numpy as np
import pytest

from mixdisc.core import (
    NotDoublyStochastic,
    NotUnitary,
    PreconditionViolated,
    random_psd,
    spawn_seeds,
)
from mixdisc.discriminant import MatrixTuple, eval_polarized
from mixdisc.extremal import random_ds_tuple
from mixdisc.structure import (
    decompose,
    is_fully_indecomposable_support,
    is_indecomposable,
    m_matrix,
    positivity_rank_test,
)


def block_diag_ds(seed):
    """A decomposable doubly stochastic 4-tuple built from two 2x2 blocks."""
    a = random_ds_tuple(2, seed)
    b = random_ds_tuple(2, seed + 1)
    z = np.zeros((2, 2))
    mats = [np.block([[m, z], [z, z]]) for m in a.matrices]
    mats += [np.block([[z, z], [z, m]]) for m in b.matrices]
    return MatrixTuple(mats), a, b


class TestIndecomposability:
    def test_jn_indecomposable(self):
        t = MatrixTuple([np.eye(3) / 3] * 3)
        ok, witness = is_indecomposable(t)
        assert ok and witness is None

    def test_diagonal_permutation_tuple_decomposable(self):
        t = MatrixTuple([np.diag([1.0 if i == j else 0.0 for i in range(3)]) for j in range(3)])
        ok, witness = is_indecomposable(t)
        assert not ok
        assert witness == (0,)

    def test_random_ds_indecomposable(self):
        t = random_ds_tuple(4, 3)
        assert is_indecomposable(t)[0]

    def test_positivity_rank_test(self):
        t = MatrixTuple([np.eye(3) / 3] * 3)
        assert positivity_rank_test(t)
        bad = MatrixTuple([np.diag([1.0, 0, 0])] * 3)
        assert not positivity_rank_test(bad)


    def test_non_psd_tuple_is_a_precondition_violation(self):
        t = MatrixTuple([np.diag([1.0, -1.0, 0.0])] * 3)
        with pytest.raises(PreconditionViolated):
            is_indecomposable(t)
        with pytest.raises(PreconditionViolated):
            positivity_rank_test(t)


class TestDecompose:
    def test_indecomposable_is_one_part(self):
        t = random_ds_tuple(3, 7)
        res = decompose(t)
        assert len(res.parts) == 1
        assert res.product_check < 1e-8

    def test_block_diagonal_splits(self):
        t, a, b = block_diag_ds(11)
        res = decompose(t)
        assert len(res.parts) == 2
        index_sets = sorted(p[0] for p in res.parts)
        assert index_sets == [(0, 1), (2, 3)]
        prod = 1.0
        for _, _, sub in res.parts:
            prod *= eval_polarized(sub)
        assert eval_polarized(t) == pytest.approx(prod, rel=1e-8)

    def test_requires_ds(self):
        t = MatrixTuple([np.eye(3)] * 3)
        with pytest.raises(NotDoublyStochastic):
            decompose(t)


class TestMMatrix:
    def test_identity_basis_gives_diagonals(self):
        t = random_ds_tuple(3, 5)
        m = m_matrix(t, np.eye(3))
        for i in range(3):
            for j in range(3):
                assert m[i, j] == pytest.approx(float(t[j][i, i].real), abs=1e-12)

    def test_rows_and_columns_sum_to_one(self):
        # For a doubly stochastic tuple and any unitary W, M(A, W) is DS.
        t = random_ds_tuple(4, 9)
        g = random_psd(4, 77)
        _, w = np.linalg.eigh(g)
        m = m_matrix(t, w)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-7)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(4), atol=1e-7)
        assert np.all(m >= -1e-12)

    def test_rejects_non_unitary(self):
        t = random_ds_tuple(3, 5)
        with pytest.raises(NotUnitary):
            m_matrix(t, np.ones((3, 3)))


class TestSupportConnectivity:
    def test_connected(self):
        m = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        assert is_fully_indecomposable_support(m, 1e-12)

    def test_block_diagonal_disconnected(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        assert not is_fully_indecomposable_support(m, 1e-12)
