import math
from itertools import islice

import numpy as np
import pytest

from mixdisc.core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    NotHermitian,
    NumericalInconsistency,
    iter_seeds,
    make_rng,
    random_complex_gaussian,
)
from mixdisc import discriminant
from mixdisc.discriminant import (
    DiscriminantGradient,
    MatrixTuple,
    _as_real,
    _as_real_d,
    check_doubly_stochastic,
    euler_identity_residual,
    eval_double_perm,
    eval_polarized,
    eval_sigma_det,
    eval_signed_permanent,
    eval_tensor,
    exchange_value,
    gradient,
    permanent,
)

from helpers import diagonal_tuple, random_psd, replaced

ALL_EVALS = [
    eval_polarized,
    eval_sigma_det,
    eval_double_perm,
    eval_signed_permanent,
    eval_tensor,
]


def random_tuple(n, seed):
    return MatrixTuple([random_psd(n, s) for s in islice(iter_seeds(seed), n)])


class TestMatrixTuple:
    def test_length_must_match_dimension(self):
        with pytest.raises(ValueError):
            MatrixTuple([np.eye(3), np.eye(3)])

    def test_readonly(self):
        t = random_tuple(3, 0)
        with pytest.raises(ValueError):
            t.matrices[0][0, 0] = 5.0

    def test_iterates_over_its_slots(self):
        t = random_tuple(3, 1)
        assert len(t) == t.n == 3
        assert [slot.tobytes() for slot in t] == [m.tobytes() for m in t.matrices]

    def test_replaced(self):
        t = random_tuple(3, 1)
        t2 = replaced(t, 1, np.eye(3))
        np.testing.assert_array_equal(t2[1], np.eye(3))
        np.testing.assert_array_equal(t2[0], t[0])

    def test_matrices_is_one_readonly_stack(self):
        t = random_tuple(3, 2)
        before = t.matrices.copy()
        assert isinstance(t.matrices, np.ndarray)
        assert t.matrices.shape == (3, 3, 3) and t.matrices.dtype == np.complex128
        assert not t.matrices.flags.writeable
        replaced(t, 0, np.eye(3))
        np.testing.assert_array_equal(t.matrices, before)

    def test_hermiticity_scale_is_per_slot(self):
        # Against the large slot's scale the small slot's defect would pass;
        # each slot is held to its own 1 + max|A_i|.
        small = np.zeros((3, 3))
        small[0, 1] = 1e-9
        assert 1e-9 > DEFAULT_TOL.hermitian_tol * (1.0 + np.max(np.abs(small)))
        with pytest.raises(NotHermitian):
            MatrixTuple([1e6 * np.eye(3), small, np.eye(3)])


class TestKnownValues:
    def test_identity_tuple_is_factorial(self):
        # det(t1 I + .. + tn I) = (sum t)^n has mixed coefficient n!.
        for n in range(1, 6):
            t = MatrixTuple([np.eye(n)] * n)
            assert eval_polarized(t) == pytest.approx(math.factorial(n), rel=1e-12)

    def test_jn_tuple(self):
        for n in range(1, 7):
            t = MatrixTuple([np.eye(n) / n] * n)
            expected = math.factorial(n) / n**n
            assert eval_polarized(t) == pytest.approx(expected, rel=1e-12)

    def test_n2_closed_form(self):
        # D(A, B) = det(A+B) - det(A) - det(B) for n = 2.
        a, b = random_psd(2, 1), random_psd(2, 2)
        t = MatrixTuple([a, b])
        expected = np.linalg.det(a + b) - np.linalg.det(a) - np.linalg.det(b)
        assert eval_polarized(t) == pytest.approx(expected.real, rel=1e-12)

    def test_multilinearity(self):
        t = random_tuple(3, 5)
        c = random_psd(3, 99)
        lhs = eval_polarized(replaced(t, 0, t[0] + 2.0 * c))
        rhs = eval_polarized(t) + 2.0 * eval_polarized(replaced(t, 0, c))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_symmetry_under_slot_swap(self):
        t = random_tuple(4, 8)
        mats = list(t.matrices)
        mats[0], mats[2] = mats[2], mats[0]
        assert eval_polarized(MatrixTuple(mats)) == pytest.approx(
            eval_polarized(t), rel=1e-12
        )


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_evaluators_agree(self, n):
        for seed in range(5):
            t = random_tuple(n, 31 * n + seed)
            vals = [f(t) for f in ALL_EVALS if n <= 6]
            ref = vals[0]
            for v in vals[1:]:
                assert v == pytest.approx(ref, rel=1e-10)

    def test_dimension_gates(self):
        t = MatrixTuple([np.eye(7)] * 7)
        with pytest.raises(DimensionTooLarge):
            eval_double_perm(t)
        with pytest.raises(DimensionTooLarge):
            eval_tensor(t)


class TestPermanent:
    def test_ones_matrix(self):
        for n in range(1, 8):
            assert permanent(np.ones((n, n))) == pytest.approx(
                math.factorial(n), rel=1e-12
            )

    def test_identity(self):
        assert permanent(np.eye(6)) == pytest.approx(1.0)

    def test_expansion_recursion(self):
        # per satisfies Laplace-like expansion along the first row.
        rng = make_rng(2)
        a = rng.random((5, 5))
        by_expansion = sum(
            a[0, j] * permanent(np.delete(np.delete(a, 0, 0), j, 1)) for j in range(5)
        )
        assert permanent(a) == pytest.approx(by_expansion, rel=1e-12)

    def test_complex_dtype(self):
        a = np.array([[1.0 + 1j, 2.0], [3.0, 4.0 - 1j]])
        assert permanent(a) == pytest.approx((1 + 1j) * (4 - 1j) + 6.0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_result_type_follows_the_input(self, n):
        # The empty matrix included: its permanent is 1 of the input's kind.
        assert type(permanent(np.ones((n, n)))) is float
        value = permanent(np.ones((n, n), dtype=complex))
        assert type(value) is complex and value == math.factorial(n)

    def test_diagonal_bridge(self):
        rng = make_rng(4)
        for _ in range(5):
            c = rng.random((5, 5))
            assert eval_polarized(diagonal_tuple(c)) == pytest.approx(
                permanent(c), rel=1e-10
            )

    def test_streaming_path_matches(self):
        # n = 14 fills exactly one cached table of 2^13 sign vectors; at
        # n = 16 the sign vectors are generated chunk by chunk from their
        # index bits.  Cross-check both against a rank-1 closed form.
        for n in (14, 16):
            u = np.linspace(0.1, 1.0, n)
            a = np.outer(u, np.ones(n))
            # per of a matrix with constant columns u: n! * prod(u).
            assert permanent(a) == pytest.approx(
                math.factorial(n) * float(np.prod(u)), rel=1e-9
            )


class TestGradient:
    def test_linear_functional(self):
        t = random_tuple(3, 17)
        g = gradient(t)
        x = random_psd(3, 55)
        direct = eval_polarized(replaced(t, 1, x))
        assert float(np.trace(x @ g.Q[1]).real) == pytest.approx(direct, rel=1e-8)

    def test_euler_identity(self):
        for seed in range(5):
            t = random_tuple(4, 100 + seed)
            d = eval_polarized(t)
            assert euler_identity_residual(t) <= 1e-8 * (1.0 + abs(d))

    def test_non_hermitian_q_is_an_internal_failure(self):
        # Slot 1 at 1e4 times the others' scale: rounding leaves Q far from
        # Hermitian.  The input is valid, so this is a failed internal
        # check (exit 2), not a Hermiticity error of the input (exit 1).
        rng = make_rng(0)
        g = random_complex_gaussian((6, 6, 6), rng)
        mats = g @ g.conj().swapaxes(-1, -2)
        mats[1] *= 1e4
        with pytest.raises(NumericalInconsistency, match=r"Hermiticity defect \d"):
            gradient(MatrixTuple(mats))


def _hermitian_with_spectrum(lam, seed):
    """U diag(lam) U^* for a seeded unitary U, and the eigen-cofactor
    adjugate U diag(prod_{k != j} lam_k) U^* of the same spectrum."""
    n = len(lam)
    u, _ = np.linalg.qr(random_psd(n, seed))
    cof = [math.prod(lam[:j] + lam[j + 1 :]) for j in range(n)]
    return (u * lam) @ u.conj().T, (u * cof) @ u.conj().T


class TestAdjugateRoutes:
    @pytest.fixture
    def eigen_calls(self, monkeypatch):
        """The stacks the eigen-cofactor route is given."""
        calls = []
        route = discriminant._eigen_adjugates

        def recording(m):
            calls.append(m.copy())
            return route(m)

        monkeypatch.setattr(discriminant, "_eigen_adjugates", recording)
        return calls

    def test_n1_adjugate_is_exactly_one(self, eigen_calls):
        m = np.array([49.0, 3.0, -2.5, 1e-300, 0.0]).reshape(-1, 1, 1)
        adj, det = discriminant._adjugates(m)
        assert adj.tolist() == [[[1.0]]] * 5
        assert det.tolist() == np.linalg.det(m).tolist()
        assert not eigen_calls

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_singular_stacks_take_the_eigen_route(self, n, eigen_calls):
        zero = np.zeros((n, n), dtype=complex)
        rank_n1 = _hermitian_with_spectrum([0.0] + [1.0 + k for k in range(n - 1)], n)
        rank_n2 = _hermitian_with_spectrum([0.0, 0.0] + [1.0 + k for k in range(n - 2)], n + 1)
        regular = _hermitian_with_spectrum([1.0 + k for k in range(n)], n + 2)
        m = np.array([zero, rank_n1[0], rank_n2[0], regular[0]])
        expected = np.array([zero, rank_n1[1], rank_n2[1], regular[1]])
        adj, det = discriminant._adjugates(m)
        assert det.tolist() == np.linalg.det(m).tolist()
        # Rounding may leave the LU determinant of a singular matrix nonzero;
        # its kappa_1 is then far above the constant: the three singular
        # matrices take the eigen route, the regular one LU.
        assert np.array_equal(np.concatenate(eigen_calls), m[:3])
        assert np.abs(adj - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())

    @pytest.mark.parametrize("factor, eigen", [(1.01, True), (0.99, False)])
    def test_conditioning_picks_the_route(self, factor, eigen, eigen_calls):
        # diag(1, .., 1, 1/c): kappa_1 = c, just above or below the constant.
        n = 4
        c = factor * discriminant._ADJ_LU_MAX_COND
        diag = np.array([1.0] * (n - 1) + [1.0 / c])
        adj, det = discriminant._adjugates(np.diag(diag)[None])
        assert bool(eigen_calls) == eigen
        expected = np.diag([math.prod(np.delete(diag, j)) for j in range(n)])
        assert np.abs(adj[0] - expected).max() <= 1e-15

    def test_wishart_gradient_takes_no_eigensolve(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rng = make_rng(8)
        g = [random_complex_gaussian(8, rng) for _ in range(8)]
        gradient(MatrixTuple([x @ x.conj().T / 8 for x in g]))
        assert not calls


class TestExchange:
    def test_dual_route_agreement(self):
        t = random_tuple(4, 23)
        d_ij, d_ji = exchange_value(t, 0, 2)
        assert d_ij > 0 and d_ji > 0

    def test_routes_that_disagree_raise(self):
        # A gradient with every Q_i doubled doubles the trace route.
        t = random_tuple(4, 23)
        g = gradient(t)
        doubled = DiscriminantGradient(Q=2.0 * g.Q, value=g.value)
        with pytest.raises(NumericalInconsistency, match="^exchange values disagree: direct "):
            exchange_value(t, 0, 2, doubled)

    def test_same_slot_rejected(self):
        t = random_tuple(3, 1)
        with pytest.raises(ValueError):
            exchange_value(t, 1, 1)

    @pytest.mark.parametrize("i, j", [(-1, 2), (0, -3), (3, 0), (1, 7), (-1, -1)])
    def test_slot_outside_the_tuple_rejected(self, i, j):
        # -1 and 2 name one slot at n = 3; negative indices are not wrapped.
        t = random_tuple(3, 1)
        with pytest.raises(ValueError, match="range"):
            exchange_value(t, i, j)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_stacked_call_keeps_the_bits_of_the_substituted_tuples(self, n):
        # From n = 8 on the kernel groups repeated slots, and every
        # substituted tuple repeats one; the third n = 8 tuple repeats three
        # of its own slots as well.
        tuples = [random_tuple(n, 40 + n), random_tuple(n, 50 + n)]
        if n == 8:
            base = random_tuple(8, 60).matrices
            tuples.append(MatrixTuple(base[[0, 0, 1, 1, 2, 2, 2, 3]]))
        for t in tuples:
            for i, j in [(0, 1), (1, 0), (0, n - 1), (n - 1, n - 2)]:
                d_ij, d_ji = exchange_value(t, i, j)
                assert d_ij.hex() == eval_polarized(replaced(t, j, t.matrices[i])).hex()
                assert d_ji.hex() == eval_polarized(replaced(t, i, t.matrices[j])).hex()


class TestAsReal:
    def test_scalar_comes_back_as_a_float(self):
        assert type(_as_real(np.complex128(0.25 + 1e-12j))) is float
        assert _as_real(2.0) == 2.0

    def test_array_comes_back_as_its_real_array(self):
        z = np.array([1.0 + 1e-12j, -3.0 - 1e-10j, 0.5 + 0j])
        assert _as_real(z).tobytes() == z.real.tobytes()
        assert _as_real(np.array([1.0, 2.0])).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_one_residue_above_the_gate_raises(self, shape):
        z = np.full(shape, 1.0 + 0j)
        z.flat[-1] = 1.0 + 3e-9j  # gate 1e-9 * (1 + |z|), about 2e-9
        with pytest.raises(NumericalInconsistency, match=r"\(1\+3e-09j\)"):
            _as_real(z)
        z.flat[-1] = 1.0 + 1.5e-9j
        assert _as_real(z).tolist() == np.ones(shape).tolist()


class TestAsRealD:
    def test_residue_is_held_to_the_rounding_scale_of_the_terms(self):
        # Three slots 4/3 I: sum ||A_i||_2 = 4, S = 4^3, gate 8 n u S.
        mats = np.array([4 * np.eye(3) / 3] * 3)
        gate = 8 * 3 * 2.0**-53 * 4.0**3
        assert _as_real_d(np.array([1.0 + 0.9j * gate]), mats[None]).tolist() == [1.0]
        with pytest.raises(NumericalInconsistency):
            _as_real_d(np.array([1.0 + 1.1j * gate]), mats[None])

    def test_each_value_of_a_stack_is_held_to_its_own_tuple(self):
        small = np.array([np.eye(2) / 2] * 2)  # S = 1
        stack = np.array([100 * small, small])  # S = 1e4 for the first
        gate = 8 * 2 * 2.0**-53
        z = np.array([1.0 + 1e3j * gate, -2.0 + 0j])
        assert _as_real_d(z, stack).tolist() == [1.0, -2.0]
        z[1] = -2.0 + 2j * gate
        with pytest.raises(NumericalInconsistency):
            _as_real_d(z, stack)

    def test_real_values_take_no_eigensolve(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("S computed for a real value")

        monkeypatch.setattr(discriminant, "_eigh", no_eigh)
        mats = np.array([np.eye(2) / 2] * 2)
        assert _as_real_d(np.array([0.5 + 0j]), mats[None]).tolist() == [0.5]
        assert _as_real_d(np.array([0.5, 0.25 + 0j]), np.array([mats, mats])).tolist() == [0.5, 0.25]


class TestDsCheck:
    def test_jn_is_ds(self):
        t = MatrixTuple([np.eye(3) / 3] * 3)
        rep = check_doubly_stochastic(t)
        assert rep.is_doubly_stochastic
        assert rep.trace_violation < 1e-14

    def test_non_ds_flagged(self):
        t = MatrixTuple([np.eye(3)] * 3)
        rep = check_doubly_stochastic(t)
        assert not rep.is_doubly_stochastic
        assert rep.sum_violation == pytest.approx(2.0)
