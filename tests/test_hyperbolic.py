import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from mixdisc import hyperbolic
from mixdisc.core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    NumericalInconsistency,
    PreconditionViolated,
    Tolerances,
    iter_seeds,
    make_rng,
)
from mixdisc.discriminant import MatrixTuple, eval_polarized, permanent
from mixdisc.extremal import _random_ds_stack, bapat_bound, random_ds_tuple
from mixdisc.hyperbolic import (
    HyperbolicPencil,
    _random_ds_matrices,
    axis_vectors,
    check_hd_membership,
    conjecture_experiment,
    mixed_value,
    pencil_from_tuple,
    roots,
    trace_e,
)

from helpers import is_e_nonnegative, random_psd


def random_pencil(n, seed):
    mats = [random_psd(n, s) for s in islice(iter_seeds(seed), n)]
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
        # value is sign e^logdet of slogdet, which is how det forms it: the
        # same float, a singular point's 0.0 included.
        rng = make_rng(79)
        for pencil in _seeded_pencils() + [p]:
            for x in [pencil.e, -pencil.e, np.zeros(pencil.m)] + [rng.standard_normal(pencil.m) for _ in range(6)]:
                assert pencil.value(x).hex() == float(np.linalg.det(pencil.at(x)).real).hex()


_NON_FINITE_CALLS = {
    "roots": roots,
    "is_e_nonnegative": is_e_nonnegative,
    "trace_e": trace_e,
    "check_hd_membership": lambda p, x: check_hd_membership(p, [x, *np.eye(3)[1:]]),
    "mixed_value": lambda p, x: mixed_value(p, [x, *np.eye(3)[1:]]),
    "direction": lambda p, x: HyperbolicPencil(p.matrices, x),
    "permanent": lambda p, x: permanent(np.full((3, 3), x[0])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
def test_non_finite_vectors_raise_value_error(call, bad):
    # Rejected before any eigensolve, determinant or kernel call: not a
    # LAPACK failure, a NaN result or a RuntimeWarning.
    p = pencil_from_tuple(random_ds_tuple(3, 0))
    with pytest.raises(ValueError, match="NaN or infinity"):
        _NON_FINITE_CALLS[call](p, np.array([bad, 1.0, 1.0]))


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

    def test_nonnegativity_is_scale_free(self):
        # The PSD rule reads the smallest root against psd_tol times the
        # largest |root|, so x and 2^(+-40) x get one verdict; the absolute
        # test it replaced, smallest root >= -psd_tol, said False at 2^40 x
        # for x = (1, -5e-10).
        diagonal = HyperbolicPencil([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.ones(2))
        points = [
            (diagonal, np.array([1.0, -5e-10]), True),
            (diagonal, np.array([1.0, -2e-9]), False),
            (diagonal, np.array([-1.0, 1e-12]), False),
            (diagonal, np.zeros(2), True),
        ]
        p = random_pencil(3, 24)
        points += [(p, p.e, True), (p, -p.e, False), (p, np.array([1.0, -1.0, 0.0]), False)]
        for pencil, x, expected in points:
            for c in (2.0**-40, 1.0, 2.0**40):
                assert is_e_nonnegative(pencil, c * x) is expected, (x, c)

    def test_nonnegativity_boundary(self):
        # Roots of x on the diagonal pencil are x itself: a smallest root of
        # exactly -psd_tol times the largest passes, and one just below fails.
        pencil = HyperbolicPencil([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.ones(2))
        tol = DEFAULT_TOL.psd_tol
        assert is_e_nonnegative(pencil, np.array([1.0, -tol]))
        assert not is_e_nonnegative(pencil, np.array([1.0, -1.001 * tol]))
        assert is_e_nonnegative(pencil, np.array([1.0, -0.5]), Tolerances(psd_tol=0.5))
        assert not is_e_nonnegative(pencil, np.array([1.0, -0.6]), Tolerances(psd_tol=0.5))


class TestMixedValue:
    def test_axis_vectors_give_discriminant(self):
        for seed in range(5):
            t = MatrixTuple([random_psd(3, s) for s in islice(iter_seeds(40 + seed), 3)])
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

    def test_a_run_that_accepts_nothing_gives_up(self, monkeypatch):
        # Every mixture scaled off the e-trace fails the recheck: the run
        # raises at the first one, having drawn the first block's pencils
        # and no more.
        draw = hyperbolic._random_ds_matrices
        monkeypatch.setattr(
            hyperbolic, "_random_ds_matrices", lambda k, n, rng: draw(k, n, rng) * (1.0 + 1e-7)
        )
        pencils = []

        def counting(n, seeds, tol):
            pencils.extend(seeds)
            return _random_ds_stack(n, seeds, tol)

        monkeypatch.setattr(hyperbolic, "_random_ds_stack", counting)
        with pytest.raises(NumericalInconsistency, match="^mixture 0 of pencil 0 "):
            conjecture_experiment(4, 120, 0)
        assert pencils == list(islice(iter_seeds(0), 3))

    def test_a_mixture_out_of_membership_raises(self, monkeypatch):
        # Mixture 137 scaled off the e-trace fails the recheck: every
        # mixture is e-doubly stochastic by construction, so the run raises,
        # naming the mixture, its pencil, its violations and the limit it
        # used, ds_tol at the default.
        draw = hyperbolic._random_ds_matrices

        def one_off(k, n, rng):
            m = draw(k, n, rng)
            m[137] *= 1.0 + 1e-7
            return m

        monkeypatch.setattr(hyperbolic, "_random_ds_matrices", one_off)
        with pytest.raises(NumericalInconsistency) as failure:
            conjecture_experiment(4, 200, 0)
        message = str(failure.value)
        assert message.startswith("mixture 137 of pencil 2 failed its membership recheck: ")
        assert message.endswith("nonnegativity 0, e-trace 1e-07, sum 1e-07 against the limit 1e-08")

    def test_the_gate_fires_before_any_pencil_is_drawn(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a pencil was drawn past the gate")

        monkeypatch.setattr(hyperbolic, "_random_ds_stack", no_draw)
        with pytest.raises(DimensionTooLarge, match="^conjecture_experiment is gated at n <= 20"):
            conjecture_experiment(21, 1000, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_200_samples_stay_above_the_bound(self, n):
        for seed in range(3):
            rep = conjecture_experiment(n, 200, seed)
            assert (rep.samples, rep.violations) == (200, [])
            assert rep.min_ratio >= bapat_bound(n) - 1e-6

    @pytest.mark.parametrize("n", [14, 16])
    def test_a_ratio_far_below_the_bound_is_a_violation_at_every_n(self, n, monkeypatch):
        # The slack is relative: at n = 16 the bound is 1.13e-6, so an
        # absolute 1e-6 would let a ratio at half the bound pass.
        half = 0.5 * bapat_bound(n)
        monkeypatch.setattr(hyperbolic, "_discriminants", lambda points: np.full(len(points), half))
        rep = conjecture_experiment(n, 2, 0)
        assert rep.samples == 2 and rep.min_ratio == half
        assert rep.violations == [{"seed": 0, "pencil_index": 0, "ratio": half}] * 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_the_pencils_reduced_slots_have_unit_traces_to_rounding(self, n, monkeypatch):
        # The pencils' tuples are scaled to the 4 n eps floor, not to ds_tol:
        # drawn at ds_tol = 1e-8, their reduced traces missed 1 by up to
        # 1.17e-8, and some mixtures near a permutation matrix were rejected.
        blocks = []
        membership = hyperbolic._membership

        def capturing(reduced, *args):
            blocks.append(reduced)
            return membership(reduced, *args)

        monkeypatch.setattr(hyperbolic, "_membership", capturing)
        for seed in range(20):
            assert conjecture_experiment(n, 200, seed).samples == 200
        traces = np.trace(np.concatenate(blocks), axis1=-2, axis2=-1)
        assert np.abs(traces - 1.0).max() <= 16 * n * np.finfo(float).eps

    @pytest.mark.parametrize(
        "n, samples, seed, min_ratio",
        [
            (2, 60, 0, 0.5012945738456253),
            (3, 120, 1, 0.22550252211107424),
            (4, 80, 7, 0.09631505608215994),
            (5, 60, 3, 0.03910795748643289),
        ],
    )
    def test_pinned_outputs(self, n, samples, seed, min_ratio):
        rep = conjecture_experiment(n, samples, seed)
        assert rep.samples == samples
        assert rep.min_ratio == pytest.approx(min_ratio, rel=1e-12, abs=0)
        assert rep.violations == []


class TestBirkhoffDraw:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_every_matrix_is_doubly_stochastic_to_rounding(self, n):
        # Each row and column sums the K weights, which sum to 1.
        bound = 2 * ((n - 1) ** 2 + 1) * np.finfo(float).eps
        for seed in range(5):
            m = _random_ds_matrices(200, n, make_rng(seed))
            assert m.shape == (200, n, n)
            assert (m >= 0.0).all()
            assert np.abs(m.sum(axis=-1) - 1.0).max() <= bound
            assert np.abs(m.sum(axis=-2) - 1.0).max() <= bound

    def test_one_by_one_is_one(self):
        assert _random_ds_matrices(3, 1, make_rng(0)).tolist() == [[[1.0]]] * 3

    def test_the_same_rng_gives_the_same_bits(self):
        for n in (2, 5):
            m = _random_ds_matrices(50, n, make_rng(n))
            assert _random_ds_matrices(50, n, make_rng(n)).tobytes() == m.tobytes()


# ---------------------------------------------------------------------------
# the stacked membership and conjecture loop against one vector at a time


def _sequential_membership(pencil, xs, tol=DEFAULT_TOL):
    """Membership one vector at a time through ``roots`` and ``trace_e``, as
    fields."""
    nonneg_v = trace_v = 0.0
    total = np.zeros(pencil.m)
    for x in xs:
        nonneg_v = max(nonneg_v, max(0.0, -float(roots(pencil, x).lam[-1])))
        trace_v = max(trace_v, abs(trace_e(pencil, x) - 1.0))
        total += x
    sum_v = float(np.max(np.abs(total - pencil.e)))
    passes = nonneg_v <= tol.ds_tol and trace_v <= tol.ds_tol and sum_v <= tol.ds_tol
    return nonneg_v, trace_v, sum_v, passes


def _reduced_ratio(pencil, xs):
    """M_p(x_1, .., x_n) / p(e) of one mixture as the mixed discriminant of
    its reduced points sum_j x_j A_j."""
    points = hyperbolic._pencil_points(pencil._reduced, np.array(xs))
    return float(hyperbolic._discriminants(points[None])[0])


def _sequential_conjecture(n, samples, seed, tol=DEFAULT_TOL):
    """The conjecture experiment one pencil and one mixture at a time, on the
    mixtures of its blocks: each block draws its mixtures (at most
    _BLOCK_MIXTURES) as one stack, 50 per pencil.  Pencil k's tuple is drawn
    from the k-th seed of ``iter_seeds(seed)``, at ds_tol = 0; ``tol``
    holds for the recheck, and the first mixture that fails it raises
    NumericalInconsistency naming the mixture and its pencil."""
    bound = hyperbolic.bapat_bound(n)
    exact = replace(tol, ds_tol=0.0)
    rng = make_rng(seed)
    seeds = list(islice(iter_seeds(seed), -(-samples // 50)))
    min_ratio, violations = math.inf, []
    for block in range(0, samples, hyperbolic._BLOCK_MIXTURES):
        mixes = hyperbolic._random_ds_matrices(min(samples - block, hyperbolic._BLOCK_MIXTURES), n, rng)
        for i, mix in enumerate(mixes, block):
            pencil_index = i // 50
            if i % 50 == 0:
                t = random_ds_tuple(n, seeds[pencil_index], exact)
                pencil = pencil_from_tuple(t, tol)
            xs = list(mix.T)
            if not _sequential_membership(pencil, xs, tol)[3]:
                raise NumericalInconsistency(f"mixture {i} of pencil {pencil_index} ")
            ratio = _reduced_ratio(pencil, xs)
            min_ratio = min(min_ratio, ratio)
            if ratio < bound * (1.0 - 1e-7):
                violations.append({"seed": seed, "pencil_index": pencil_index, "ratio": ratio})
    return samples, min_ratio, violations


def _reject_every_third(monkeypatch):
    """Scale every third mixture of each draw, from the second on, off the
    e-trace, so the recheck rejects it."""
    draw = hyperbolic._random_ds_matrices

    def some_rejected(k, n, rng):
        m = draw(k, n, rng)
        m[1::3] *= 1.0 + 1e-7
        return m

    monkeypatch.setattr(hyperbolic, "_random_ds_matrices", some_rejected)


def _bits(*values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _rank_one_pencils(n):
    """A doubly stochastic pencil whose slot 0 is the rank-one v v* (the
    others are (I - v v*) / (n - 1), so every slot is singular), and a
    Wishart pencil whose slot 0 is rank one; on both the axis vector e_0
    has a Weyl bound of 0 up to rounding."""
    v = make_rng(90 + n).standard_normal(n) + 1j * make_rng(91 + n).standard_normal(n)
    v /= np.linalg.norm(v)
    one = np.outer(v, v.conj())
    rest = (np.eye(n) - one) / max(1, n - 1)
    mats = [random_psd(n, s) for s in islice(iter_seeds(92 + n), n)]
    return [
        HyperbolicPencil([one] + [rest] * (n - 1), np.ones(n)),
        HyperbolicPencil([one * n] + mats[1:], np.ones(n)),
    ]


def _membership_pencils(n):
    """Doubly stochastic, complex Wishart, indefinite and rank-one pencils of
    n slots of degree n."""
    sym = [(g + g.T) / 2 for g in make_rng(95 + n).standard_normal((n, n, n))]
    e = np.zeros(n)
    e[0] = 1.0
    return [
        pencil_from_tuple(random_ds_tuple(n, 40 + n)),
        random_pencil(n, 50 + n),
        HyperbolicPencil([sym[0] + 3 * n * np.eye(n)] + sym[1:], e),
        *_rank_one_pencils(n),
    ]


def _counting_eigh(monkeypatch):
    """Wrap ``hyperbolic._eigh``; the returned list gets the shape of every
    eigenvalues-only call."""
    shapes = []
    eigh = hyperbolic._eigh

    def counting(a, vectors=True):
        if not vectors:
            shapes.append(np.shape(a))
        return eigh(a, vectors)

    monkeypatch.setattr(hyperbolic, "_eigh", counting)
    return shapes


class TestStackedMembership:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_a_scaled_pencil_gives_the_same_bits(self, n):
        # B -> 4^k B scales L by 2^-k exactly, so the reduced slots, and with
        # them every membership field, keep their bits.
        t = random_ds_tuple(n, 80 + n)
        pencil = pencil_from_tuple(t)
        mixes = _random_ds_matrices(4, n, make_rng(n))
        for k in (-20, 20):
            scaled = HyperbolicPencil(4.0**k * t.matrices, np.ones(n))
            assert scaled._reduced.tobytes() == pencil._reduced.tobytes()
            for scale in (1.0, 1.0 + 1e-7, -1.0):
                for mix in mixes:
                    xs = list(scale * mix.T)
                    assert check_hd_membership(scaled, xs) == check_hd_membership(pencil, xs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_report_matches_the_root_loop(self, n):
        # On Wishart pencils, indefinite slots and rank-one slots as well:
        # the points the slots' Weyl bound settles read 0.0, as their
        # eigvalsh does, the rest go through eigvalsh, and a root of exactly
        # 0.0 (n = 2, the rank-one Wishart pencil) reads 0.0, not -0.0.
        for pencil in _membership_pencils(n):
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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_fallback_runs_where_the_bound_is_open(self, n, monkeypatch):
        # One eigensolve of the m slots; then negative entries, and the axis
        # vector e_0 on a rank-one slot 0, leave the verdict open, so their
        # points go through eigvalsh, while a mixture of positive definite
        # slots is settled by the bound alone.
        shapes = _counting_eigh(monkeypatch)
        mix = list(_random_ds_matrices(1, n, make_rng(n))[0].T)
        check_hd_membership(random_pencil(n, 50 + n), mix)
        assert shapes == [(1, n, n, n)]
        shapes.clear()
        check_hd_membership(random_pencil(n, 50 + n), [-x for x in mix])
        assert shapes == [(1, n, n, n), (n, n, n)]
        for pencil in _rank_one_pencils(n):
            shapes.clear()
            rep = check_hd_membership(pencil, [axis_vectors(n)[0]])
            assert shapes == [(1, n, n, n), (1, n, n)]
            assert rep.nonneg_violation <= 1e-15

    def test_a_conjecture_call_solves_its_slots_not_its_points(self, monkeypatch):
        # 200 mixtures of 4 vectors at n = 4 are 800 reduced points; the
        # block's four pencils have 16 slots, and their one eigensolve
        # settles every point.
        shapes = _counting_eigh(monkeypatch)
        for seed in range(4):
            shapes.clear()
            rep = conjecture_experiment(4, 200, seed)
            assert rep.samples == 200
            assert shapes == [(4, 4, 4, 4)]


class TestStackedConjecture:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_the_reduced_ratio_is_the_mixed_value_over_p_e(self, n):
        # D(L X_1 L, .., L X_n L) = det(L)^2 D(X_1, .., X_n) = M_p / p(e),
        # on pencils whose p(e) is not 1 as well as on DS-tuple pencils.
        mixes = _random_ds_matrices(20, n, make_rng(n))
        for pencil in (pencil_from_tuple(random_ds_tuple(n, 60 + n)), random_pencil(n, 70 + n)):
            for mix in mixes:
                xs = list(mix.T)
                expected = mixed_value(pencil, xs) / pencil.value(pencil.e)
                assert abs(_reduced_ratio(pencil, xs) - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("n, samples, seed", [(1, 10, 3), (2, 60, 0), (3, 120, 1), (4, 80, 7), (5, 60, 3)])
    def test_matches_one_mixture_at_a_time(self, n, samples, seed):
        rep = conjecture_experiment(n, samples, seed)
        done, min_ratio, violations = _sequential_conjecture(n, samples, seed)
        assert (rep.samples, rep.min_ratio.hex(), rep.violations) == (done, min_ratio.hex(), violations)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rejections_and_violations_match(self, n, monkeypatch):
        # A bound of 1 makes every ratio a violation; then, with a third of
        # the mixtures off the e-trace, both raise at the first of them.
        monkeypatch.setattr(hyperbolic, "bapat_bound", lambda n: 1.0)
        rep = conjecture_experiment(n, 70, 5)
        done, min_ratio, violations = _sequential_conjecture(n, 70, 5)
        assert len(rep.violations) == 70
        assert (rep.samples, rep.min_ratio.hex(), rep.violations) == (done, min_ratio.hex(), violations)
        _reject_every_third(monkeypatch)
        for run in (conjecture_experiment, _sequential_conjecture):
            with pytest.raises(NumericalInconsistency, match="^mixture 1 of pencil 0 "):
                run(n, 70, 5)

    def test_a_run_longer_than_a_block_takes_several(self, monkeypatch):
        # 250 samples in blocks of at most 100 mixtures: two pencils, two,
        # then one, each block one stack, as one mixture at a time would see.
        monkeypatch.setattr(hyperbolic, "_BLOCK_MIXTURES", 100)
        blocks = []

        def counting(n, seeds, tol):
            blocks.append(len(seeds))
            return _random_ds_stack(n, seeds, tol)

        monkeypatch.setattr(hyperbolic, "_random_ds_stack", counting)
        rep = conjecture_experiment(3, 250, 2)
        done, min_ratio, violations = _sequential_conjecture(3, 250, 2)
        assert (rep.samples, rep.min_ratio.hex(), rep.violations) == (done, min_ratio.hex(), violations)
        assert blocks == [2, 2, 1]

    def test_seeds_apart_by_any_step_share_no_pencil(self, monkeypatch):
        # Pencil seeds are iter_seeds children, not seed + 7919 k: runs at
        # seeds s and s + 7919 draw no common tuple (they shared three of
        # four when the seeds were that arithmetic).
        stacks = {}

        def recording(n, seeds, tol):
            mats = _random_ds_stack(n, seeds, tol)
            stacks.setdefault(run, []).extend(m.tobytes() for m in mats)
            return mats

        monkeypatch.setattr(hyperbolic, "_random_ds_stack", recording)
        for run in (0, 7919):
            assert conjecture_experiment(3, 200, run).samples == 200
        assert [len(set(stacks[run])) for run in (0, 7919)] == [4, 4]
        assert len(set(stacks[0]) & set(stacks[7919])) == 0

    def test_one_draw_reads_the_stream_of_one_draw_per_pencil(self):
        for n in (2, 3, 4, 8):
            whole = _random_ds_matrices(120, n, make_rng(n))
            rng = make_rng(n)
            parts = [_random_ds_matrices(k, n, rng) for k in (50, 50, 20)]
            assert whole.tobytes() == np.concatenate(parts).tobytes()


# On seeds 0-9 at n = 2..5 (120 samples: pencils of 50, 50 and 20 mixtures)
# the blocks accept every mixture and give, bit for bit, the min_ratio of
# one pencil per block (_BLOCK_MIXTURES = 50), whose draws are the slices of
# the block's.
_PER_PENCIL_MIN_RATIOS = {
    2: [0.500078146595292, 0.5000001045896436, 0.5000924268020381, 0.5000006602414324,
        0.5000195869585371, 0.5000479692833358, 0.5000400027958577, 0.5004629259287537,
        0.5000346288249181, 0.5000049221333114],
    3: [0.2241632491578602, 0.22550252211107424, 0.22336637307064416, 0.22478036488084305,
        0.22436861426332547, 0.22514897861068364, 0.22364324296846938, 0.224730240670642,
        0.22622236794016043, 0.22297340731846588],
    4: [0.09619807926699264, 0.09596182740095131, 0.09566347304987083, 0.09546750300326456,
        0.09478778610178794, 0.09582866410328232, 0.09626148464541029, 0.09561589920170041,
        0.09458013947776471, 0.09576820581206623],
    5: [0.0392634714336967, 0.039269255986350275, 0.03906457550321825, 0.03910795748643289,
        0.03910824932966434, 0.03913215535408456, 0.03898755303944198, 0.03904189810726942,
        0.038936714942717214, 0.03910836146354347],
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocks_keep_the_per_pencil_reports(n):
    for seed, expected in enumerate(_PER_PENCIL_MIN_RATIOS[n]):
        rep = conjecture_experiment(n, 120, seed)
        assert (rep.samples, rep.violations) == (120, [])
        assert rep.min_ratio == expected


# ---------------------------------------------------------------------------
# roots, trace_e and is_e_nonnegative against the unreduced root path


def _unreduced_roots(pencil, x):
    """The roots as ``roots`` first computed them, from the unreduced slots:
    the eigenvalues of ``np.linalg.eigh`` of L B(x) L, descending, with
    L = B(e)^(-1/2) from ``np.linalg.eigh`` of B(e)."""
    w, v = np.linalg.eigh(pencil.at(pencil.e))
    l = (v / np.sqrt(w)) @ v.conj().T
    return np.linalg.eigh(l @ pencil.at(x) @ l)[0][::-1]


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
        # The roots are the eigenvalues alone of sum x_i A_i; they stay within
        # 1e-13 max|root| of the eigenvalues of L B(x) L and decide every
        # nonnegativity test as those do.  The e-trace, the linear form
        # sum x_i tr A_i, stays within 1e-14 (1 + |t|) of the roots' sum.
        rng = make_rng(78)
        outcomes = set()
        for pencil in _seeded_pencils():
            points = [pencil.e, -pencil.e, np.zeros(pencil.m)]
            points += [rng.standard_normal(pencil.m) for _ in range(6)]
            for x in points:
                reduced = sum(xi * a for xi, a in zip(x, pencil._reduced))
                lam = np.linalg.eigvalsh(reduced)[::-1]
                reference = _unreduced_roots(pencil, x)
                scale = np.abs(reference).max()
                assert np.abs(lam - reference).max() <= 1e-13 * scale
                assert roots(pencil, x).lam.tobytes() == lam.tobytes()
                t = trace_e(pencil, x)
                assert abs(t - math.fsum(lam)) <= 1e-14 * (1.0 + abs(t))
                for psd_tol in (DEFAULT_TOL.psd_tol, 0.0, 0.5):
                    expected = bool(reference[-1] >= -psd_tol * scale)
                    assert is_e_nonnegative(pencil, x, Tolerances(psd_tol=psd_tol)) is expected
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_reduced_slots_are_hermitian_and_sum_to_the_identity(self):
        # A_i = L B_i L is symmetrized exactly, and sum e_i A_i = L B(e) L = I.
        for pencil in _seeded_pencils():
            a = pencil._reduced
            assert a.shape == pencil.matrices.shape
            assert np.array_equal(a, a.conj().swapaxes(-1, -2))
            at_e = sum(ei * ai for ei, ai in zip(pencil.e, a))
            assert np.abs(at_e - np.eye(pencil.degree)).max() <= 1e-13
