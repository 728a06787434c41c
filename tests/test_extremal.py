import math

import numpy as np
import pytest

from mixdisc import extremal
from mixdisc.capacity import _scale_cold
from mixdisc.core import (
    NonConvergence,
    NotIndecomposable,
    NumericalInconsistency,
    PreconditionViolated,
    random_psd,
    spawn_seeds,
)
from mixdisc.discriminant import MatrixTuple, check_doubly_stochastic, eval_polarized
from mixdisc.extremal import (
    averaging_sweep,
    bapat_bound,
    dnp_family_value,
    lemma36_family,
    minimize_search,
    random_ds_tuple,
)


class TestBound:
    def test_values(self):
        assert bapat_bound(1) == 1.0
        assert bapat_bound(2) == 0.5
        assert bapat_bound(3) == pytest.approx(2.0 / 9.0)
        assert bapat_bound(4) == pytest.approx(24.0 / 256.0)

    def test_attained_at_jn(self):
        for n in range(1, 7):
            t = MatrixTuple([np.eye(n) / n] * n)
            assert eval_polarized(t) == pytest.approx(bapat_bound(n), rel=1e-12)


class TestSampler:
    def test_samples_are_ds(self):
        for n in (2, 3, 4):
            t = random_ds_tuple(n, 5 * n)
            assert check_doubly_stochastic(t).is_doubly_stochastic

    def test_deterministic(self):
        a = random_ds_tuple(3, 9)
        b = random_ds_tuple(3, 9)
        for x, y in zip(a.matrices, b.matrices):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 77), (4, 5), (5, 1234), (6, 9)])
    def test_matches_the_eagerly_spawned_retry_seeds(self, n, seed):
        # Reference: the retry children spawned up front, as one list of 100,
        # each scaled by the cold engine the sampler uses.
        for child in spawn_seeds(seed, 100):
            t = MatrixTuple([random_psd(n, s) for s in spawn_seeds(child, n)])
            try:
                expected = _scale_cold(t).scaled
                break
            except (NotIndecomposable, NonConvergence):
                continue
        np.testing.assert_array_equal(random_ds_tuple(n, seed).matrices, expected.matrices)

    def test_values_above_bound(self):
        for seed in range(10):
            t = random_ds_tuple(3, 100 + seed)
            assert eval_polarized(t) >= bapat_bound(3) - 1e-7


class TestAveraging:
    def test_limit_is_slot_average(self):
        t = random_ds_tuple(3, 2)
        avg = sum(t.matrices) / 3.0
        swept = averaging_sweep(t, 200)
        for m in swept.matrices:
            np.testing.assert_allclose(m, avg, atol=1e-8)

    def test_sweep_preserves_ds(self):
        t = random_ds_tuple(4, 3)
        assert check_doubly_stochastic(averaging_sweep(t, 5)).is_doubly_stochastic

    def test_sweep_decreases_toward_bound(self):
        t = random_ds_tuple(3, 8)
        v0 = eval_polarized(t)
        v1 = eval_polarized(averaging_sweep(t, 100))
        assert v1 <= v0 + 1e-12
        assert v1 == pytest.approx(bapat_bound(3), rel=1e-6)


class TestLemma36:
    def test_identity_slot_gives_bound(self):
        n = 3
        t, predicted, actual = lemma36_family(n, np.eye(n) / n)
        assert predicted == pytest.approx(bapat_bound(n), rel=1e-12)
        assert actual == pytest.approx(predicted, rel=1e-9)

    def test_random_admissible(self):
        rng = np.random.default_rng(0)
        n = 4
        for _ in range(5):
            w = rng.uniform(0.0, 2.0 / n, size=n)
            w *= 1.0 / w.sum()
            w = np.minimum(w, 2.0 / n)
            w[0] += 1.0 - w.sum()  # re-normalize trace to 1
            if w[0] < 0 or w[0] > 2.0 / n:
                continue
            t, predicted, actual = lemma36_family(n, np.diag(w))
            assert actual == pytest.approx(predicted, rel=1e-9)
            assert actual >= bapat_bound(n) - 1e-12

    def test_rejects_bad_slot(self):
        with pytest.raises(PreconditionViolated):
            lemma36_family(3, np.eye(3))  # trace 3, not 1


class TestDnpFamily:
    def test_matches_det_formula(self):
        n = 4
        p = random_psd(n, 12)
        p = p * (n / float(p.trace().real))
        v = dnp_family_value(p)
        assert v == pytest.approx(
            bapat_bound(n) * float(np.linalg.det(p).real), rel=1e-9
        )

    def test_relative_identity_check_at_n16(self, monkeypatch):
        # At n = 16 the values are ~1e-6 or less, so an absolute 1e-9 bound
        # would let a 1e-7 relative error through.
        exact = extremal.eval_polarized
        monkeypatch.setattr(extremal, "eval_polarized", lambda t: exact(t) * (1.0 + 1e-7))
        with pytest.raises(NumericalInconsistency):
            dnp_family_value(np.eye(16))

    def test_rejects_wrong_trace(self):
        with pytest.raises(PreconditionViolated):
            dnp_family_value(np.eye(3) * 2.0)


class TestSearch:
    def test_never_below_bound_n2(self):
        rec = minimize_search(2, trials=10, seed=0)
        assert not rec.below_bound
        assert rec.best_value >= bapat_bound(2) - 1e-7
        assert len(rec.trial_bests) == 10

    def test_search_approaches_half(self):
        rec = minimize_search(2, trials=20, seed=1)
        assert rec.best_value == pytest.approx(0.5, abs=1e-4)
        assert rec.distance_to_jn is not None
