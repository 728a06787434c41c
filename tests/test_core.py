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
    eig_hermitian,
    fsum_complex,
    inv_sqrt_psd,
    iter_seeds,
    make_rng,
    max_abs,
    min_eigenvalue,
    psd_violation,
    random_complex_gaussian,
    random_hermitian,
    random_psd,
    rank_psd,
    spawn_seeds,
)


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


class TestEigAndRoots:
    def test_eig_descending_and_reconstruction(self):
        a = random_psd(6, 3)
        w, v = eig_hermitian(a)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-10)

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

    def test_min_eigenvalue(self):
        assert min_eigenvalue(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)


class TestRandomness:
    def test_deterministic(self):
        np.testing.assert_array_equal(random_psd(4, 11), random_psd(4, 11))

    def test_spawn_seeds_distinct(self):
        seeds = spawn_seeds(0, 20)
        assert len(set(seeds)) == 20
        assert seeds == spawn_seeds(0, 20)

    def test_seeds_are_the_children_of_one_batch_spawn(self):
        # Seeds derived one at a time equal the children of a single
        # SeedSequence.spawn(count), so seeded samples do not depend on how
        # many seeds a caller draws.
        batch = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(77).spawn(100)]
        assert spawn_seeds(77, 100) == batch
        assert list(itertools.islice(iter_seeds(77), 5)) == batch[:5]

    def test_random_psd_is_psd(self):
        for s in range(5):
            assert min_eigenvalue(random_psd(5, s)) > -1e-12


class TestCompensatedSums:
    def test_fsum_complex(self):
        terms = np.array([1e16 + 1j, 1.0 - 1j, -1e16 + 0j])
        assert fsum_complex(terms) == complex(1.0, 0.0)

    def test_max_abs_empty(self):
        assert max_abs(np.zeros((0, 0))) == 0.0
