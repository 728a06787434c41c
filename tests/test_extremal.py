import math

import numpy as np
import pytest

from mixdisc import extremal
from mixdisc.capacity import _scale_cold
from mixdisc.core import (
    DEFAULT_TOL,
    NonConvergence,
    NotIndecomposable,
    NumericalInconsistency,
    PreconditionViolated,
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


# ---------------------------------------------------------------------------
# the stacked descent against one trial at a time


def _sequential_tangent(n, rng):
    """The direction rule drawn one slot at a time: n random_hermitian calls."""
    zs = np.array([random_hermitian(n, rng) for _ in range(n)])
    zs -= (np.trace(zs, axis1=1, axis2=2).real / n)[:, None, None] * np.eye(n)
    zs -= zs.sum(0) / n
    norm = math.sqrt(np.sum(np.abs(zs) ** 2, axis=(1, 2)).sum())
    if norm < 1e-12:
        return _sequential_tangent(n, rng)
    return zs / norm


def _sequential_descend(t, rng, tol=DEFAULT_TOL):
    """One trial's descent, a candidate at a time; also returns its step count."""
    value = eval_polarized(t)
    step, rejections, steps = 0.1, 0, 0
    while rejections < 40 and steps < extremal._DESCENT_MAX_STEPS:
        steps += 1
        zs = _sequential_tangent(t.n, rng)
        accepted = False
        for sign in (1.0, -1.0):
            cand = t.matrices + sign * step * zs
            cand = (cand + cand.conj().transpose(0, 2, 1)) / 2.0
            if psd_violation(cand) > tol.psd_tol:
                continue
            cand_t = MatrixTuple(cand, tol)
            cand_value = eval_polarized(cand_t)
            if cand_value < value:
                t, value = cand_t, cand_value
                accepted = True
                break
        if accepted:
            rejections = 0
            step = min(step * 1.5, 0.1)
        else:
            step *= 0.5
            rejections += 1
    return t, value, steps


def _sequential_search(n, trials, seed):
    """(trial_bests, best tuple, steps per trial), one trial after another."""
    best_value, best_tuple, trial_bests, steps = math.inf, None, [], []
    for child in spawn_seeds(seed, trials):
        t, value, k = _sequential_descend(random_ds_tuple(n, child), make_rng(child ^ 0x5EED))
        trial_bests.append(value)
        steps.append(k)
        if value < best_value:
            best_value, best_tuple = value, t
    return trial_bests, best_tuple, steps


def _assert_same_search(rec, trial_bests, best_tuple):
    assert [v.hex() for v in rec.trial_bests] == [v.hex() for v in trial_bests]
    assert rec.best_value.hex() == min(trial_bests).hex()
    assert rec.best_tuple.matrices.tobytes() == best_tuple.matrices.tobytes()


class TestStackedDescent:
    # Trials stop at different steps in every case: 158 to 189 at n = 2,
    # 788 to 810 at n = 3; at n = 4 seed 7 the first trial hits the step cap.
    @pytest.mark.parametrize("n, trials, seed", [(2, 5, 52), (3, 3, 53), (4, 2, 7)])
    def test_matches_one_trial_at_a_time(self, n, trials, seed):
        trial_bests, best_tuple, steps = _sequential_search(n, trials, seed)
        assert len(set(steps)) > 1
        if n == 4:
            assert extremal._DESCENT_MAX_STEPS in steps
        _assert_same_search(minimize_search(n, trials, seed), trial_bests, best_tuple)

    def test_several_chunks_match_one_trial_at_a_time(self, monkeypatch):
        monkeypatch.setattr(extremal, "_DESCENT_CHUNK", 2)
        monkeypatch.setattr(extremal, "_DIRECTION_BLOCK", 5)
        trial_bests, best_tuple, _ = _sequential_search(2, 5, 52)
        _assert_same_search(minimize_search(2, 5, 52), trial_bests, best_tuple)

    def test_more_trials_than_one_chunk(self, monkeypatch):
        trials = extremal._DESCENT_CHUNK + 3
        rec = minimize_search(2, trials, 8)
        monkeypatch.setattr(extremal, "_DESCENT_CHUNK", 4)
        monkeypatch.setattr(extremal, "_DIRECTION_BLOCK", 1)
        _assert_same_search(minimize_search(2, trials, 8), rec.trial_bests, rec.best_tuple)
        assert len(rec.trial_bests) == trials

    @pytest.mark.parametrize(
        "n, trials, seed, trial_bests",
        [
            (2, 5, 52, [0.5000000000000008, 0.5000000000000006, 0.5000000000000004, 0.5, 0.5000000000000002]),
            (3, 3, 53, [0.2222222222222238, 0.2222222222222232, 0.2222222222222227]),
        ],
    )
    def test_pinned_trial_bests(self, n, trials, seed, trial_bests):
        assert minimize_search(n, trials, seed).trial_bests == trial_bests

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_directions_are_drawn_again(self, n):
        # A stream whose first and fourth directions are all zeros: both are
        # dropped and the next draw of the same stream takes their place.
        size = n * 2 * n * n
        stream = make_rng(n).standard_normal(8 * size)
        stream[:size] = 0.0
        stream[3 * size : 4 * size] = 0.0
        expected_rng = _StreamRng(stream)
        expected = [_sequential_tangent(n, expected_rng) for _ in range(4)]
        rng = _StreamRng(stream)
        got = extremal._tangent_directions(n, [rng], 4)
        assert got.shape == (1, 4, n, n, n)
        assert got[0].tobytes() == np.array(expected).tobytes()
        assert rng.pos == expected_rng.pos == 6 * size


class _StreamRng:
    """Hands out one fixed stream of normals, whatever shapes are asked for."""

    def __init__(self, stream):
        self.stream, self.pos = stream, 0

    def standard_normal(self, shape):
        k = math.prod(shape)
        out = self.stream[self.pos : self.pos + k].reshape(shape)
        self.pos += k
        return out
