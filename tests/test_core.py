import itertools
import math

import numpy as np
import pytest

from mixdisc.core import (
    DEFAULT_TOL,
    NotHermitian,
    NotPositiveDefinite,
    Tolerances,
    as_hermitian,
    fsum_complex,
    inv_sqrt_psd,
    iter_seeds,
    make_rng,
    max_abs,
    psd_violation,
    random_complex_gaussian,
    rank_psd,
)
from mixdisc.discriminant import MatrixTuple
from mixdisc.extremal import dnp_family_value

from helpers import random_hermitian, random_psd


class TestTolerances:
    def test_defaults_valid(self):
        t = Tolerances()
        assert 0 < t.hermitian_tol < 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Tolerances(psd_tol=1.5)
        with pytest.raises(ValueError):
            Tolerances(ds_tol=-1e-3)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TOL.psd_tol = 0.5


class TestAsHermitian:
    def test_exact_symmetry(self):
        rng = make_rng(0)
        a = random_hermitian(5, rng) + 1e-12 * random_complex_gaussian(5, rng)
        h = as_hermitian(a)
        assert np.array_equal(h, h.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_hermitian(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "broadcast"])
    def test_non_contiguous_complex_input_validates(self, layout):
        n = 4
        a = random_hermitian(n, make_rng(3))
        assert np.iscomplexobj(a) and np.count_nonzero(a.imag)
        if layout == "transposed":
            h, expected = as_hermitian(a.T), a.T
        elif layout == "fortran":
            h, expected = as_hermitian(np.asfortranarray(a)), a
        else:
            stack = np.broadcast_to(np.eye(n) / n, (n, n, n))
            h, expected = MatrixTuple(stack).matrices, stack
        assert np.array_equal(h, expected)

    def test_rejects_nan_in_an_imaginary_part(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1], a[1, 0] = complex(0.0, np.nan), complex(0.0, -np.nan)
        for view in (a, a.T):
            with pytest.raises(ValueError, match="NaN or infinity"):
                as_hermitian(view)


class TestEigAndRoots:
    def test_inv_sqrt_inverts(self):
        a = random_psd(5, 4)
        l = inv_sqrt_psd(a)
        np.testing.assert_allclose(l @ a @ l, np.eye(5), atol=1e-9)

    def test_inv_sqrt_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_psd(np.diag([1.0, 0.0]))

    def test_rank_psd(self):
        assert rank_psd(np.diag([1.0, 1e-3, 0.0])) == 2
        assert rank_psd(np.zeros((3, 3))) == 0

    def test_rank_psd_of_a_stack_matches_per_matrix_calls(self):
        def reference(a):
            w = np.linalg.eigh(a)[0]
            return 0 if w[-1] <= 0.0 else int(np.count_nonzero(w > DEFAULT_TOL.rank_tol * w[-1]))

        rng = make_rng(8)
        mats = [np.zeros((4, 4)), -np.eye(4), np.diag([1.0, 1e-3, 1e-12, 0.0])]
        for r in (0, 1, 2, 3, 4):
            g = random_complex_gaussian(4, rng)[:, :r]
            mats.append(g @ g.conj().T)
        stack = np.array(mats)
        single = [rank_psd(a) for a in mats]
        assert all(type(r) is int for r in single)
        assert single == [reference(a) for a in mats] == [0, 0, 2, 0, 1, 2, 3, 4]
        assert rank_psd(stack).tolist() == single
        assert rank_psd(stack.reshape(2, 4, 4, 4)).tolist() == [single[:4], single[4:]]

    def test_psd_violation(self):
        assert psd_violation(np.diag([1.0, -0.25])) == pytest.approx(0.25)
        assert psd_violation(np.eye(2)) == 0.0

    @pytest.mark.parametrize("entry", [rank_psd, psd_violation, inv_sqrt_psd, dnp_family_value])
    def test_a_non_square_input_is_a_value_error(self, entry):
        # Bad input, not an eigensolver failure: NonConvergence, which is no
        # ValueError, is left for LAPACK's non-convergence.
        for a in (np.ones((2, 3)), np.ones((4, 2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match=r"expected square matrices, got shape"):
                entry(a)


class TestRandomness:
    def test_deterministic(self):
        np.testing.assert_array_equal(random_psd(4, 11), random_psd(4, 11))

    def test_iter_seeds_distinct(self):
        seeds = list(itertools.islice(iter_seeds(0), 20))
        assert len(set(seeds)) == 20
        assert seeds == list(itertools.islice(iter_seeds(0), 20))

    def test_seeds_are_the_children_of_one_batch_spawn(self):
        # Seeds derived one at a time equal the children of a single
        # SeedSequence.spawn(count), so seeded samples do not depend on how
        # many seeds a caller draws.
        batch = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(77).spawn(100)]
        assert list(itertools.islice(iter_seeds(77), 100)) == batch

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_a_stack_reads_the_stream_of_consecutive_matrix_draws(self, n):
        # One standard_normal call over (..., 2, n, n) gives, bit for bit,
        # the matrices of that many n x n draws from the same generator, and
        # one n x n draw is its real part then its imaginary part.
        for shape in ((4, n, n), (3, 2, n, n)):
            rng = make_rng(10 + n)
            one_by_one = [random_complex_gaussian(n, rng) for _ in range(math.prod(shape[:-2]))]
            stack = random_complex_gaussian(shape, make_rng(10 + n))
            assert stack.shape == shape
            assert stack.tobytes() == np.array(one_by_one).reshape(shape).tobytes()
        rng = make_rng(n)
        re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        expected = (re + 1j * im) / math.sqrt(2.0)
        assert random_complex_gaussian(n, make_rng(n)).tobytes() == expected.tobytes()

    def test_random_psd_is_psd(self):
        for s in range(5):
            assert np.linalg.eigvalsh(random_psd(5, s))[0] > -1e-12

    def test_random_psd_refuses_dimension_zero(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            random_psd(0, 3)


class TestCompensatedSums:
    def test_fsum_complex(self):
        terms = np.array([1e16 + 1j, 1.0 - 1j, -1e16 + 0j])
        assert fsum_complex(terms) == complex(1.0, 0.0)

    def test_max_abs_empty(self):
        assert max_abs(np.zeros((0, 0))) == 0.0
