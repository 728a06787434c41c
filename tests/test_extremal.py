import math
from dataclasses import replace

import numpy as np
import pytest

from mixdisc import extremal
from mixdisc.capacity import scale_to_doubly_stochastic
from mixdisc.core import (
    DEFAULT_TOL,
    NonConvergence,
    NotIndecomposable,
    NumericalInconsistency,
    PreconditionViolated,
    _psd,
    make_rng,
    psd_violation,
    random_hermitian,
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

    def test_correctly_rounded(self):
        # float(n!) / float(n^n) rounds twice and is first off at n = 17.
        for n in range(1, 41):
            assert bapat_bound(n) == math.factorial(n) / n**n, n

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
        # each scaled by the public scaling route the sampler uses.
        for child in spawn_seeds(seed, 100):
            t = MatrixTuple([random_psd(n, s) for s in spawn_seeds(child, n)])
            try:
                expected = scale_to_doubly_stochastic(t).scaled
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

    def test_trace_check_reads_ds_tol(self):
        a1 = np.diag([0.5 + 2e-8, 0.5])
        with pytest.raises(PreconditionViolated, match="unit trace"):
            lemma36_family(2, a1)
        lemma36_family(2, a1, replace(DEFAULT_TOL, ds_tol=1e-6))


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

    def test_trace_check_reads_ds_tol(self):
        p = np.diag([1.0 + 5e-8, 1.0, 1.0])
        with pytest.raises(PreconditionViolated, match="trace n"):
            dnp_family_value(p)
        assert dnp_family_value(p, replace(DEFAULT_TOL, ds_tol=1e-6)) > 0.0

    def test_definiteness_is_relative_to_the_largest_eigenvalue(self):
        # Smallest eigenvalue 1.5e-9 of a largest near 2: above psd_tol, but
        # not above psd_tol times the largest, so core._definite rejects it.
        with pytest.raises(PreconditionViolated, match="positive definite"):
            dnp_family_value(np.diag([2.0 - 1.5e-9, 1.5e-9]))


class TestSearch:
    def test_never_below_bound_n2(self):
        rec = minimize_search(2, trials=10, seed=0)
        assert not rec.below_bound
        assert rec.best_value >= bapat_bound(2) - 1e-7
        assert len(rec.trial_bests) == 10

    def test_n1_is_a_precondition_error(self):
        # The DS tangent space at n = 1 is {0}: no descent direction exists.
        with pytest.raises(PreconditionViolated):
            minimize_search(1, trials=1, seed=0)

    def test_search_approaches_half(self):
        rec = minimize_search(2, trials=20, seed=1)
        assert rec.best_value == pytest.approx(0.5, abs=1e-4)
        assert rec.distance_to_jn is not None


# ---------------------------------------------------------------------------
# the projected-gradient descent


def _unit_tangent(n, rng):
    """A random tuple of Hermitian slots with zero traces and zero slot sum,
    of unit Frobenius norm."""
    zs = np.array([random_hermitian(n, rng) for _ in range(n)])
    zs -= (np.trace(zs, axis1=1, axis2=2).real / n)[:, None, None] * np.eye(n)
    zs -= zs.sum(0) / n
    return zs / math.sqrt(np.sum(np.abs(zs) ** 2))


def _exactly_hermitian(a):
    return np.array_equal(a, a.conj().swapaxes(-1, -2))


class TestStackedDescent:
    @pytest.mark.parametrize(
        "n, trials, seed, trial_bests",
        [
            (2, 5, 52, [0.5, 0.4999999999999999, 0.49999999999999994, 0.5000000000000001, 0.5000000000000001]),
            (3, 3, 53, [0.22222222222222213, 0.2222222222222222, 0.22222222222222246]),
        ],
    )
    def test_pinned_trial_bests(self, n, trials, seed, trial_bests):
        assert minimize_search(n, trials, seed).trial_bests == trial_bests
        bound = bapat_bound(n)
        assert all(abs(v - bound) <= 2e-15 * bound for v in trial_bests)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_directions_and_candidates_are_exactly_hermitian(self, n, monkeypatch):
        # The descent evaluates x + step * d without symmetrizing it: both
        # terms are exactly Hermitian, so every candidate must be too.
        stacks = []
        kernel = extremal._gradient_raw

        def recording(mats):
            stacks.append(np.array(mats))
            return kernel(mats)

        monkeypatch.setattr(extremal, "_gradient_raw", recording)
        monkeypatch.setattr(extremal, "_DESCENT_MAX_STEPS", 40)
        for seed in (n, n + 10):
            minimize_search(n, 3, seed)
        # Per search: three starts and at least one candidate.
        assert len(stacks) > 2 * 3
        assert all(_exactly_hermitian(s) for s in stacks)


class TestProjectedGradientDescent:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_trial_stops_at_roundoff_on_the_bound(self, n):
        bound = bapat_bound(n)
        for seed in range(60):
            rec = minimize_search(n, 1, seed)
            assert rec.stop_reasons == ["roundoff"]
            assert abs(rec.best_value - bound) <= 1e-11 * bound

    @pytest.mark.parametrize("n", range(2, 7))
    def test_direction_is_a_hermitian_tangent(self, n):
        t = random_ds_tuple(n, 40 + n)
        d = extremal._direction(extremal._gradient_raw(t.matrices)[0])
        assert _exactly_hermitian(d)
        scale = np.abs(d).max()
        assert np.abs(np.trace(d, axis1=1, axis2=2)).max() <= 1e-14 * scale
        assert np.abs(d.sum(0)).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", range(2, 7))
    def test_returns_to_jn_from_a_nearby_start(self, n):
        jn = np.array([np.eye(n) / n] * n)
        start = MatrixTuple(jn + 1e-3 * _unit_tangent(n, make_rng(n)))
        mats, value, reason = extremal._descend(start.matrices, DEFAULT_TOL)
        assert reason == "roundoff"
        assert np.abs(mats - jn).max() <= 1e-6
        assert abs(value - bapat_bound(n)) <= 1e-11 * bapat_bound(n)

    @pytest.mark.parametrize("n", [3, 6])
    def test_near_boundary_start_descends(self, n):
        # Slot 0 is rank one plus 1e-6 I before scaling: the descent starts
        # next to the boundary of the PSD cone.
        rng = make_rng(70 + n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mats = [np.outer(v, v.conj()) + 1e-6 * np.eye(n)]
        mats += [random_psd(n, s) for s in spawn_seeds(70 + n, n - 1)]
        start = scale_to_doubly_stochastic(MatrixTuple(mats)).scaled
        got, value, reason = extremal._descend(start.matrices, DEFAULT_TOL)
        assert reason in ("roundoff", "max_steps")
        assert value <= eval_polarized(start)
        assert value >= bapat_bound(n) - 1e-7
        assert psd_violation(got) <= DEFAULT_TOL.psd_tol
        assert check_doubly_stochastic(MatrixTuple(got)).is_doubly_stochastic

    def test_non_psd_candidates_are_rejected(self, monkeypatch):
        # At n = 3, seed 15, one candidate leaves the PSD cone; the step
        # halves and the trial still ends on the bound.
        verdicts = []

        def recording(w, scale, tol):
            verdicts.append(_psd(w, scale, tol))
            return verdicts[-1]

        monkeypatch.setattr(extremal, "_psd", recording)
        rec = minimize_search(3, 1, 15)
        assert sum(not v.all() for v in verdicts) == 1
        assert rec.stop_reasons == ["roundoff"]
        assert abs(rec.best_value - bapat_bound(3)) <= 1e-11 * bapat_bound(3)
