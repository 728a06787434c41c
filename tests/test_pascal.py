import numpy as np
import pytest

from mixdisc.core import (
    DimensionTooLarge,
    TermNotPsd,
    as_hermitian,
    inv_sqrt_psd,
    make_rng,
    random_complex_gaussian,
    random_psd,
    spawn_seeds,
)
from mixdisc.discriminant import MatrixTuple, eval_polarized, permanent
from mixdisc.pascal import (
    BlockMatrix,
    SeparableSpec,
    assemble_separable,
    check_block_ds,
    qp_block,
    qp_tensor,
    sample_block_ds,
    sample_separable_ds,
)


def random_hermitian_block(n, seed):
    rng = make_rng(seed)
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return BlockMatrix.from_assembled((g + g.conj().T) / 2.0, n)


def _count_inv_sqrt_calls(monkeypatch):
    """Record every inv_sqrt_psd call the samplers make; returns the record list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return inv_sqrt_psd(*args, **kwargs)

    monkeypatch.setattr("mixdisc.pascal.inv_sqrt_psd", counted)
    return calls


class TestBlockMatrix:
    def test_roundtrip(self):
        bm = random_hermitian_block(3, 0)
        bm2 = BlockMatrix.from_assembled(bm.assembled(), 3)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(bm.blocks[i][j], bm2.blocks[i][j])

    def test_tensor4_convention(self):
        bm = random_hermitian_block(2, 1)
        t4 = bm.tensor4()
        for i1 in range(2):
            for i3 in range(2):
                np.testing.assert_array_equal(t4[i1, :, i3, :], bm.blocks[i1][i3])

    def test_tensor4_is_reshaped_assembly(self):
        for n in (2, 3):
            bm = random_hermitian_block(n, 2 + n)
            np.testing.assert_array_equal(bm.tensor4(), bm.assembled().reshape(n, n, n, n))
            assert bm.blocks.shape == (n, n, n, n) and not bm.blocks.flags.writeable

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BlockMatrix([[np.eye(2)], [np.eye(2)]])


class TestQpAgreement:
    @pytest.mark.parametrize("n", [2, 3])
    def test_block_equals_tensor(self, n):
        for seed in range(10):
            bm = random_hermitian_block(n, 50 * n + seed)
            b, t = qp_block(bm), qp_tensor(bm)
            assert t == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_block_diagonal_reduces_to_discriminant(self):
        n = 3
        mats = [random_psd(n, 70 + i) for i in range(n)]
        z = np.zeros((n, n))
        bm = BlockMatrix(
            [[mats[i] if i == j else z for j in range(n)] for i in range(n)]
        )
        expected = eval_polarized(MatrixTuple(mats))
        assert qp_block(bm) == pytest.approx(expected, rel=1e-10)
        assert qp_tensor(bm) == pytest.approx(expected, rel=1e-10)

    def test_diagonal_blocks_give_signed_permanent_structure(self):
        # All blocks diagonal: QP reduces to a 4-index sum computable by hand at n = 2.
        d = [[np.diag([1.0, 2.0]), np.diag([0.5, 0.25])],
             [np.diag([0.5, 0.25]), np.diag([3.0, 1.0])]]
        bm = BlockMatrix(d)
        assert qp_block(bm) == pytest.approx(qp_tensor(bm), rel=1e-12)

    def test_gates(self):
        bm = BlockMatrix([[np.eye(5)] * 5] * 5)
        with pytest.raises(DimensionTooLarge):
            qp_tensor(bm)


class TestSeparable:
    def test_assemble_matches_kron(self):
        p, q = random_psd(2, 3), random_psd(2, 4)
        bm = assemble_separable(SeparableSpec(terms=((p, q),)))
        np.testing.assert_allclose(bm.assembled(), np.kron(p, q), atol=1e-12)

    def test_rejects_non_psd_factor(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(TermNotPsd):
            assemble_separable(SeparableSpec(terms=((bad, np.eye(2)),)))

    def test_sampler_outputs_block_ds(self):
        for seed in range(5):
            res = sample_separable_ds(2, seed)
            assert res is not None
            bm, spec = res
            assert check_block_ds(bm).passes
            # separability witness: reassembling the spec reproduces the matrix
            np.testing.assert_allclose(
                assemble_separable(spec).assembled(), bm.assembled(), atol=1e-10
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_factor_loop(self, n, monkeypatch):
        # Reference: alternating normalization of the PSD factor pairs (P_t, Q_t).
        calls = _count_inv_sqrt_calls(monkeypatch)
        eye = np.eye(n)

        def weighted(w, m):  # sum_k tr(w_k) m_k
            return (np.trace(w, axis1=1, axis2=2).real[:, None, None] * m).sum(0)

        for seed in range(10):
            rng = make_rng(seed)
            k = int(rng.integers(1, n * n + 1))
            g = np.array(
                [(random_complex_gaussian(n, rng), random_complex_gaussian(n, rng)) for _ in range(k)]
            )
            pq = as_hermitian(g @ g.conj().swapaxes(-1, -2))
            p, q = pq[:, 0], pq[:, 1]
            steps = 0
            for _ in range(500):
                diag_sum, trace_m = weighted(p, q), weighted(q, p)
                if np.abs(diag_sum - eye).max() + np.abs(trace_m - eye).max() <= 1e-8:
                    break
                s = inv_sqrt_psd(diag_sum)
                q = as_hermitian(s @ q @ s, tol=1e-8)
                s = inv_sqrt_psd(weighted(q, p))
                p = as_hermitian(s @ p @ s, tol=1e-8)
                steps += 1
            expected = assemble_separable(SeparableSpec(terms=tuple(zip(p, q))))
            calls.clear()
            bm, spec = sample_separable_ds(n, seed)
            assert len(calls) == 2 * steps
            np.testing.assert_allclose(bm.blocks, expected.blocks, rtol=0, atol=1e-12)
            rho = bm.assembled()
            np.testing.assert_allclose(assemble_separable(spec).assembled(), rho, atol=1e-10)
            assert np.array_equal(rho, rho.conj().T)

    def test_separable_qp_above_half(self):
        for seed in range(20):
            res = sample_separable_ds(2, 1000 + seed)
            if res is None:
                continue
            assert qp_block(res[0]) >= 0.5 - 1e-6


class TestBlockDsSampler:
    def test_sampler_outputs_pass(self):
        for seed in range(5):
            bm = sample_block_ds(2, seed)
            assert bm is not None
            rep = check_block_ds(bm)
            assert rep.passes

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_check_block_ds_loop(self, n, monkeypatch):
        # Reference: the assembled-matrix np.kron loop, stopping on
        # check_block_ds's sum and trace violations.
        calls = _count_inv_sqrt_calls(monkeypatch)
        for seed in range(3):
            rng = make_rng(seed)
            g = random_complex_gaussian(n * n, rng)
            rho = as_hermitian(g @ g.conj().T)
            eye = np.eye(n)
            steps = 0
            for _ in range(500):
                bm = BlockMatrix.from_assembled(rho, n)
                rep = check_block_ds(bm)
                if rep.sum_violation + rep.trace_violation <= 1e-8:
                    break
                s = np.kron(eye, inv_sqrt_psd(np.trace(bm.blocks)))
                rho = as_hermitian(s @ rho @ s, tol=1e-8)
                bm = BlockMatrix.from_assembled(rho, n)
                s = np.kron(inv_sqrt_psd(as_hermitian(bm.trace_matrix(), tol=1e-8)), eye)
                rho = as_hermitian(s @ rho @ s, tol=1e-8)
                steps += 1
            calls.clear()
            got = sample_block_ds(n, seed)
            assert len(calls) == 2 * steps
            np.testing.assert_allclose(got.blocks, bm.blocks, rtol=0, atol=1e-13)
            assert check_block_ds(got).passes

    def test_check_flags_identity(self):
        bm = BlockMatrix.from_assembled(np.eye(4, dtype=complex), 2)
        rep = check_block_ds(bm)
        assert not rep.passes  # diagonal block sum is 2I, trace matrix is I2*... not I
