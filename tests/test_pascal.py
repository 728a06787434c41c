import numpy as np
import pytest

from mixdisc import pascal
from mixdisc.core import (
    DimensionTooLarge,
    NonConvergence,
    NotHermitian,
    TermNotPsd,
    Tolerances,
    as_hermitian,
    fsum_complex,
    inv_sqrt_psd,
    make_rng,
    random_complex_gaussian,
    random_psd,
)
from mixdisc.discriminant import (
    MatrixTuple,
    _double_perm_raw,
    _perms_and_signs,
    eval_polarized,
    permanent,
)
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

    def test_the_assembled_matrix_is_held_to_hermitian_tol(self):
        # A defect of 1e-9 in one off-diagonal entry of rho = I: refused at
        # the default hermitian_tol, symmetrized within 1e-8.
        rho = np.eye(4, dtype=complex)
        rho[0, 3] = 1e-9
        grid = rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
        with pytest.raises(NotHermitian):
            BlockMatrix(grid)
        a = BlockMatrix(grid, Tolerances(hermitian_tol=1e-8)).assembled()
        np.testing.assert_array_equal(a, a.conj().T)
        assert a[0, 3] == a[3, 0] == 5e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_and_assembled_matrices_keep_their_bits(self, n):
        # Each is exactly Hermitian as built, so validation changes no bit.
        for rho in (sample_block_ds(n, 0), sample_separable_ds(n, 0)[0]):
            a = rho.assembled()
            np.testing.assert_array_equal(a, a.conj().T)
            np.testing.assert_array_equal(BlockMatrix(rho.blocks).blocks, rho.blocks)
        spec = sample_separable_ds(n, 1)[1]
        a = assemble_separable(spec).assembled()
        np.testing.assert_array_equal(a, a.conj().T)

    @pytest.mark.parametrize("qp", [qp_block, qp_tensor])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_blocks_are_rejected(self, qp, bad):
        with pytest.raises(ValueError, match="NaN or infinity"):
            qp(BlockMatrix(np.full((2, 2, 2, 2), bad)))


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

    @pytest.mark.parametrize("n, seeds", [(2, range(10)), (3, range(5)), (4, range(1))])
    def test_tensor_matches_the_loop_over_its_two_leading_permutations(self, n, seeds):
        # The reference sums each (tau1, tau2) slice as a signed double
        # permutation sum; qp_tensor sums all (n!)^4 terms at once, so only
        # the rounding of the partial sums differs.
        perms, signs = _perms_and_signs(n)
        for seed in seeds:
            rho = sample_block_ds(n, seed)
            t4 = rho.tensor4()
            slices = [
                signs[a] * signs[b] * _double_perm_raw(t4[perms[a], perms[b]])
                for a in range(len(perms))
                for b in range(len(perms))
            ]
            want = (fsum_complex(slices) / len(perms)).real
            assert qp_tensor(rho) == pytest.approx(want, rel=1e-14)

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

    def test_factors_are_validated_at_the_callers_tolerances(self):
        # A Hermiticity defect of 1e-9 is within 1e-8 but not within the
        # default hermitian_tol; Q = diag(1, -1e-3) is PSD only within a
        # psd_tol of 1e-3 times its largest entry.
        skew = np.array([[1.0, 1e-9], [0.0, 1.0]])
        spec = SeparableSpec(terms=((skew, np.eye(2)),))
        with pytest.raises(NotHermitian):
            assemble_separable(spec)
        assemble_separable(spec, Tolerances(hermitian_tol=1e-8))
        spec = SeparableSpec(terms=((np.eye(2), np.diag([1.0, -1e-3])),))
        with pytest.raises(TermNotPsd, match="Q factor"):
            assemble_separable(spec)
        assemble_separable(spec, Tolerances(psd_tol=1e-3))

    def test_sampler_outputs_block_ds(self):
        for seed in range(5):
            bm, spec = sample_separable_ds(2, seed)
            assert check_block_ds(bm).passes
            # separability witness: reassembling the spec reproduces the matrix
            np.testing.assert_allclose(
                assemble_separable(spec).assembled(), bm.assembled(), atol=1e-10
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_factor_loop(self, n, monkeypatch):
        # Reference: alternating normalization of the PSD factor pairs (P_t, Q_t).
        calls = _count_inv_sqrt_calls(monkeypatch)
        eye = np.eye(n)

        def weighted(w, m):  # sum_k tr(w_k) m_k
            return (np.trace(w, axis1=1, axis2=2).real[:, None, None] * m).sum(0)

        for seed in range({2: 20, 3: 10, 4: 5}[n]):
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_draw_is_the_per_matrix_draws(self, n, monkeypatch):
        # The Kraus stack the loop receives, kt[a, (t, c, d), i] = G_t[a, c] H_t[i, d],
        # against factors drawn one random_complex_gaussian call at a time.
        stacks = []
        real = pascal._scale_kraus
        monkeypatch.setattr(pascal, "_scale_kraus", lambda kt, tol: stacks.append(kt) or real(kt, tol))
        for seed in range(10):
            rng = make_rng(seed)
            k = int(rng.integers(1, n * n + 1))
            g = np.array([random_complex_gaussian(n, rng) for _ in range(2 * k)]).reshape(k, 2, n, n)
            expected = np.einsum("tac,tid->atcdi", g[:, 0], g[:, 1]).reshape(n, k * n * n, n)
            stacks.clear()
            sample_separable_ds(n, seed)
            (kt,) = stacks
            assert kt.flags.c_contiguous
            assert kt.shape == expected.shape and kt.tobytes() == expected.tobytes()

    def test_separable_qp_above_half(self):
        for seed in range(20):
            bm, _ = sample_separable_ds(2, 1000 + seed)
            assert qp_block(bm) >= 0.5 - 1e-6


@pytest.mark.parametrize("sampler", [sample_separable_ds, sample_block_ds])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_ds_tol_below_rounding_stops_at_the_rounding_floor(sampler, n):
    # The two Gram-sum defects bottom out near n eps; at ds_tol = 0 the
    # scaling stops at 4 n eps instead of running every draw to the cap.
    floor = 4 * n * np.finfo(float).eps
    for seed in range(4):
        res = sampler(n, seed, Tolerances(ds_tol=0.0))
        bm = res[0] if isinstance(res, tuple) else res
        rep = check_block_ds(bm, Tolerances(ds_tol=floor))
        assert rep.sum_violation + rep.trace_violation <= 2 * floor


@pytest.mark.parametrize("n", [2, 3])
def test_the_samplers_factors_are_the_one_helpers_draws(n, monkeypatch):
    # Both samplers turn their generator into complex Gaussians by one
    # random_complex_gaussian call: the (k, 2, n, n) factors after the term
    # count k, and the n^2 x n^2 factor whose columns are the Kraus operators.
    stacks = []
    real = pascal._scale_kraus
    monkeypatch.setattr(pascal, "_scale_kraus", lambda kt, tol: stacks.append(kt) or real(kt, tol))
    for seed in range(5):
        rng = make_rng(seed)
        k = int(rng.integers(1, n * n + 1))
        g = pascal._separable_draw(n, seed, Tolerances())[1]
        assert g.tobytes() == random_complex_gaussian((k, 2, n, n), rng).tobytes()
        stacks.clear()
        sample_block_ds(n, seed)
        g = random_complex_gaussian(n * n, make_rng(seed)).reshape(n, n, n * n)
        (kt,) = stacks
        assert kt.tobytes() == np.ascontiguousarray(g.transpose(0, 2, 1)).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_the_kraus_loop_reports_why_it_stopped(n, monkeypatch):
    # "ds_tol" within ds_tol, "roundoff" within the 4 n eps floor alone.
    floor = 4 * n * np.finfo(float).eps
    scalings = []
    real = pascal._scale_kraus

    def recorded(kt, tol):
        scalings.append(real(kt, tol))
        return scalings[-1]

    monkeypatch.setattr(pascal, "_scale_kraus", recorded)
    for seed in range(3):
        for tol, reason in ((Tolerances(), "ds_tol"), (Tolerances(ds_tol=0.0), "roundoff")):
            rho = sample_block_ds(n, seed, tol)
            scaling = scalings[-1]
            assert scaling.stop_reason == reason and 0 < scaling.steps < pascal._SAMPLER_MAX_ITER
            assert scaling.defect <= max(tol.ds_tol, floor)
            assert scaling.rho is rho


@pytest.mark.parametrize("sampler", [sample_separable_ds, sample_block_ds])
def test_a_sampler_at_its_step_cap_raises_with_the_stop(sampler, monkeypatch):
    # One scaling step leaves the draw far from block doubly stochastic: the
    # loop raises NonConvergence carrying its stop, as the tuple scaling does.
    monkeypatch.setattr(pascal, "_SAMPLER_MAX_ITER", 1)
    pattern = r"after 1 steps with defect \d\.\d{3}e[-+]\d\d$"
    with pytest.raises(NonConvergence, match=pattern) as info:
        sampler(2, 5)
    res = info.value.result
    assert (res.stop_reason, res.steps, res.rho) == ("max_iter", 1, None)
    assert res.defect > Tolerances().ds_tol


class TestBlockDsSampler:
    def test_sampler_outputs_pass(self):
        for seed in range(5):
            bm = sample_block_ds(2, seed)
            rep = check_block_ds(bm)
            assert rep.passes

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_check_block_ds_loop(self, n, monkeypatch):
        # Reference: the assembled-matrix np.kron loop, stopping on
        # check_block_ds's sum and trace violations.
        calls = _count_inv_sqrt_calls(monkeypatch)
        for seed in range({2: 20, 3: 3, 4: 3}[n]):
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

    def test_check_rejects_a_nan_block(self):
        blocks = np.array(sample_block_ds(2, 0).blocks)
        blocks[1, 0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or infinity"):
            check_block_ds(BlockMatrix(blocks))

    def test_check_flags_identity(self):
        bm = BlockMatrix.from_assembled(np.eye(4, dtype=complex), 2)
        rep = check_block_ds(bm)
        assert not rep.passes  # diagonal block sum is 2I, trace matrix is I2*... not I
