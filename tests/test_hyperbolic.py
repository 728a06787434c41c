import math

import numpy as np
import pytest

from mixdisc import hyperbolic
from mixdisc.core import (
    DEFAULT_TOL,
    PreconditionViolated,
    eig_hermitian,
    make_rng,
    random_psd,
    spawn_seeds,
)
from mixdisc.discriminant import MatrixTuple, eval_polarized
from mixdisc.extremal import bapat_bound, random_ds_tuple
from mixdisc.hyperbolic import (
    HyperbolicPencil,
    _random_ds_matrices,
    axis_vectors,
    check_hd_membership,
    conjecture_experiment,
    is_e_nonnegative,
    mixed_value,
    pencil_from_tuple,
    roots,
    trace_e,
)


def random_pencil(n, seed):
    mats = [random_psd(n, s) for s in spawn_seeds(seed, n)]
    return HyperbolicPencil(mats, np.ones(n))


class TestPencil:
    def test_requires_positive_direction(self):
        with pytest.raises(PreconditionViolated):
            HyperbolicPencil([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])], np.ones(2))

    def test_value_is_det(self):
        p = random_pencil(3, 0)
        x = np.array([1.0, 2.0, 0.5])
        assert p.value(x) == pytest.approx(
            float(np.linalg.det(p.at(x)).real), rel=1e-12
        )


class TestRoots:
    def test_roots_at_e_are_one_for_normalized(self):
        # B(e) = E, so p(e - lam e) = p(e)(1 - lam)^n: all roots equal 1.
        p = random_pencil(4, 3)
        r = roots(p, p.e)
        np.testing.assert_allclose(r.lam, np.ones(4), atol=1e-10)

    def test_product_identity(self):
        for seed in range(10):
            p = random_pencil(3, 10 + seed)
            x = np.array([0.3, 1.7, -0.4])
            r = roots(p, x)
            assert r.residual < 1e-8

    def test_homogeneity_of_roots(self):
        p = random_pencil(3, 21)
        x = np.array([1.0, 0.5, 0.25])
        r1 = roots(p, x).lam
        r2 = roots(p, 2.0 * x).lam
        np.testing.assert_allclose(r2, 2.0 * r1, atol=1e-10)

    def test_trace_linear(self):
        p = random_pencil(3, 22)
        x = np.array([1.0, -1.0, 0.5])
        y = np.array([0.2, 0.3, 0.1])
        assert trace_e(p, x + y) == pytest.approx(
            trace_e(p, x) + trace_e(p, y), abs=1e-9
        )

    def test_nonnegativity(self):
        p = random_pencil(3, 23)
        assert is_e_nonnegative(p, p.e)
        assert not is_e_nonnegative(p, -p.e)


class TestMixedValue:
    def test_axis_vectors_give_discriminant(self):
        for seed in range(5):
            t = MatrixTuple([random_psd(3, s) for s in spawn_seeds(40 + seed, 3)])
            p = pencil_from_tuple(t)
            assert mixed_value(p, axis_vectors(3)) == pytest.approx(
                eval_polarized(t), rel=1e-8
            )

    def test_all_e_gives_factorial_times_pe(self):
        # M_p(e,..,e) = n! p(e) by homogeneity.
        p = random_pencil(3, 50)
        assert mixed_value(p, [p.e] * 3) == pytest.approx(
            6.0 * p.value(p.e), rel=1e-10
        )

    def test_vector_count_enforced(self):
        p = random_pencil(3, 51)
        with pytest.raises(ValueError):
            mixed_value(p, [p.e] * 2)


class TestMembership:
    def test_axis_vectors_of_ds_tuple_pass(self):
        t = random_ds_tuple(3, 6)
        p = pencil_from_tuple(t)
        rep = check_hd_membership(p, axis_vectors(3))
        assert rep.passes

    def test_scaled_vectors_fail(self):
        t = random_ds_tuple(3, 6)
        p = pencil_from_tuple(t)
        rep = check_hd_membership(p, [2.0 * v for v in axis_vectors(3)])
        assert not rep.passes


class TestConjectureExperiment:
    def test_small_run_no_violations(self):
        rep = conjecture_experiment(3, samples=40, seed=2)
        assert rep.samples == 40
        assert not rep.violations
        assert rep.min_ratio >= bapat_bound(3) - 1e-6
        assert rep.bound == pytest.approx(bapat_bound(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_stacked_sinkhorn_matches_one_matrix_at_a_time(self, n):
        rng = make_rng(n)
        expected = []
        for _ in range(50):
            m = np.exp(rng.standard_normal((n, n)))
            for _ in range(200):
                m /= m.sum(axis=1, keepdims=True)
                m /= m.sum(axis=0, keepdims=True)
            expected.append(m)
        np.testing.assert_array_equal(_random_ds_matrices(50, n, make_rng(n)), np.array(expected))

    @pytest.mark.parametrize(
        "n, samples, seed, min_ratio",
        [
            (2, 60, 0, 0.5000116012816989),
            (3, 120, 1, 0.22365295100417262),
            (4, 80, 7, 0.09506751904618374),
            (5, 60, 3, 0.039096373744726944),
        ],
    )
    def test_pinned_outputs(self, n, samples, seed, min_ratio):
        rep = conjecture_experiment(n, samples, seed)
        assert rep.samples == samples
        assert rep.min_ratio == pytest.approx(min_ratio, rel=1e-12, abs=0)
        assert rep.rejection_rate == 0.0
        assert rep.violations == []


# ---------------------------------------------------------------------------
# the stacked membership and conjecture loop against one vector at a time


def _sequential_membership(pencil, xs, tol=DEFAULT_TOL):
    """Membership one vector at a time through ``roots``, as fields."""
    nonneg_v = trace_v = 0.0
    total = np.zeros(pencil.m)
    for x in xs:
        r = roots(pencil, x)
        nonneg_v = max(nonneg_v, max(0.0, -float(r.lam[-1])))
        trace_v = max(trace_v, abs(math.fsum(r.lam) - 1.0))
        total += x
    sum_v = float(np.max(np.abs(total - pencil.e)))
    passes = nonneg_v <= tol.ds_tol and trace_v <= tol.ds_tol and sum_v <= tol.ds_tol
    return nonneg_v, trace_v, sum_v, passes


def _sequential_conjecture(n, samples, seed, tol=DEFAULT_TOL):
    """The conjecture experiment one mixture at a time."""
    bound = hyperbolic.bapat_bound(n)
    rng = make_rng(seed)
    min_ratio, violations, rejected, done, pencil_index = math.inf, [], 0, 0, 0
    while done < samples:
        pencil = pencil_from_tuple(random_ds_tuple(n, seed + 7919 * pencil_index, tol), tol)
        for mix in hyperbolic._random_ds_matrices(min(50, samples - done), n, rng):
            xs = list(mix.T)
            if not _sequential_membership(pencil, xs, tol)[3]:
                rejected += 1
                continue
            ratio = mixed_value(pencil, xs) / pencil.value(pencil.e)
            done += 1
            min_ratio = min(min_ratio, ratio)
            if ratio < bound - 1e-6:
                violations.append({"seed": seed, "pencil_index": pencil_index, "ratio": ratio})
        pencil_index += 1
    return done, min_ratio, violations, rejected / max(1, done + rejected)


def _bits(*values):
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestStackedMembership:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_report_matches_the_root_loop(self, n):
        pencil = pencil_from_tuple(random_ds_tuple(n, 40 + n))
        rng = make_rng(n)
        for scale in (1.0, 1.0 + 1e-7, 2.0, -1.0):
            for mix in _random_ds_matrices(4, n, rng):
                xs = list(scale * mix.T)
                rep = check_hd_membership(pencil, xs)
                got = (rep.nonneg_violation, rep.trace_violation, rep.sum_violation, rep.passes)
                assert _bits(*got) == _bits(*_sequential_membership(pencil, xs))
                assert type(rep.passes) is bool
        for xs in (axis_vectors(n), axis_vectors(n)[:-1], []):
            rep = check_hd_membership(pencil, xs)
            got = (rep.nonneg_violation, rep.trace_violation, rep.sum_violation, rep.passes)
            assert _bits(*got) == _bits(*_sequential_membership(pencil, xs))


class TestStackedConjecture:
    @pytest.mark.parametrize("n, samples, seed", [(1, 10, 3), (2, 60, 0), (3, 120, 1), (4, 80, 7), (5, 60, 3)])
    def test_matches_one_mixture_at_a_time(self, n, samples, seed):
        rep = conjecture_experiment(n, samples, seed)
        done, min_ratio, violations, rate = _sequential_conjecture(n, samples, seed)
        assert (rep.samples, rep.min_ratio.hex(), rep.violations, rep.rejection_rate) == (
            done, min_ratio.hex(), violations, rate
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rejections_and_violations_match(self, n, monkeypatch):
        # Every third mixture, from the second on, is scaled off the e-trace
        # and rejected (the first never is, so every draw makes progress); a bound
        # of 1 makes every accepted ratio a violation.
        draw = hyperbolic._random_ds_matrices

        def some_rejected(k, n, rng):
            m = draw(k, n, rng)
            m[1::3] *= 1.0 + 1e-7
            return m

        monkeypatch.setattr(hyperbolic, "_random_ds_matrices", some_rejected)
        monkeypatch.setattr(hyperbolic, "bapat_bound", lambda n: 1.0)
        rep = conjecture_experiment(n, 70, 5)
        done, min_ratio, violations, rate = _sequential_conjecture(n, 70, 5)
        assert rep.rejection_rate == rate > 0.3
        assert len(rep.violations) == 70
        assert (rep.samples, rep.min_ratio.hex(), rep.violations) == (done, min_ratio.hex(), violations)


# ---------------------------------------------------------------------------
# roots, trace_e and is_e_nonnegative against the eig_hermitian root path


def _eig_hermitian_roots(pencil, x):
    """The roots as ``roots`` first computed them: ``eig_hermitian`` of
    L B(x) L, descending."""
    l = pencil._reducer
    return eig_hermitian(l @ pencil.at(x) @ l)[0]


def _seeded_pencils():
    """A DS-tuple pencil, a complex one, an exactly real one with a mixed
    direction, and one with m = 2 < n = 5."""
    rng = make_rng(77)
    sym = [(g + g.T) / 2 for g in rng.standard_normal((3, 5, 5))]
    return [
        pencil_from_tuple(random_ds_tuple(4, 3)),
        random_pencil(3, 5),
        HyperbolicPencil([np.eye(5), sym[0], sym[1] + 3 * np.eye(5)], np.array([0.5, 0.0, 0.5])),
        HyperbolicPencil([np.eye(5), sym[2]], np.array([1.0, 0.0])),
    ]


class TestRootPath:
    def test_roots_trace_and_nonnegativity_come_from_eigvalsh(self):
        # The roots are the eigenvalues alone of L B(x) L; they stay within
        # 1e-13 of the first eigendecomposition route and decide every
        # nonnegativity test as it did.
        rng = make_rng(78)
        outcomes = set()
        for pencil in _seeded_pencils():
            points = [pencil.e, -pencil.e, np.zeros(pencil.m)]
            points += [rng.standard_normal(pencil.m) for _ in range(6)]
            for x in points:
                l = pencil._reducer
                lam = np.linalg.eigvalsh(l @ pencil.at(x) @ l)[::-1]
                reference = _eig_hermitian_roots(pencil, x)
                assert np.abs(lam - reference).max() <= 1e-13
                assert roots(pencil, x).lam.tobytes() == lam.tobytes()
                assert trace_e(pencil, x).hex() == math.fsum(lam).hex()
                for tol in (DEFAULT_TOL.psd_tol, 0.0, 0.5):
                    expected = float(reference[-1]) >= -tol
                    assert is_e_nonnegative(pencil, x, tol) is expected
                    outcomes.add(expected)
        assert outcomes == {True, False}
