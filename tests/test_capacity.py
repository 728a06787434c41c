import math
import sys
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixdisc.capacity import (
    capacity,
    capacity_bound_report,
    capacity_via_scaling,
    n_pow_n_over_factorial,
    scale_to_doubly_stochastic,
)
from mixdisc.core import (
    DEFAULT_TOL,
    NonConvergence,
    Tolerances,
    NotIndecomposable,
    NotPositiveDefinite,
    PreconditionViolated,
    SingularPencil,
    inv_sqrt_psd,
    iter_seeds,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import (
    MatrixTuple,
    _trace_and_sum_violations,
    check_doubly_stochastic,
    eval_polarized,
)
from mixdisc.extremal import random_ds_tuple, random_ds_tuples
from mixdisc.structure import is_indecomposable

from helpers import random_psd


def random_tuple(n, seed):
    return MatrixTuple([random_psd(n, s) for s in islice(iter_seeds(seed), n)])


def _per_matrix_scaling(mats, ds_tol=1e-8):
    """Plain alternating normalization one slot at a time, accumulating
    X = L_k ... L_1: the reference for the scaling loop."""
    n = len(mats)

    def defect(ms):
        total = np.zeros((n, n), dtype=np.complex128)
        for a in ms:
            total += a
        trace_v = max(abs(float(a.trace().real) - 1.0) for a in ms)
        return trace_v + float(np.max(np.abs(total - np.eye(n))))

    x = np.eye(n, dtype=np.complex128)
    scalars = np.ones(n)
    iterations = 0
    while defect(mats) > ds_tol:
        total = np.zeros((n, n), dtype=np.complex128)
        for a in mats:
            total += a
        l = inv_sqrt_psd(total)
        mats = [(l @ a @ l + (l @ a @ l).conj().T) / 2.0 for a in mats]
        x = l @ x
        traces = np.array([float(a.trace().real) for a in mats])
        mats = [a / tr for a, tr in zip(mats, traces)]
        scalars /= traces
        iterations += 1
    return mats, x, scalars, iterations


class TestCapacity:
    def test_identity_tuple(self):
        # det(sum x_i I) = (sum x)^n, minimized at x = 1 by AM-GM: Cap = n^n.
        for n in (2, 3, 4):
            t = MatrixTuple([np.eye(n)] * n)
            assert capacity(t).value == pytest.approx(float(n**n), rel=1e-8)

    def test_ds_tuple_capacity_one(self):
        for seed in range(3):
            t = random_ds_tuple(3, seed)
            assert capacity(t).value == pytest.approx(1.0, rel=1e-7)

    def test_scaling_invariance(self):
        # Cap(c_i A_i) = prod(c_i) Cap(A).
        t = random_tuple(3, 5)
        c = [2.0, 0.5, 3.0]
        t2 = MatrixTuple([ci * a for ci, a in zip(c, t.matrices)])
        assert capacity(t2).value == pytest.approx(
            math.prod(c) * capacity(t).value, rel=1e-7
        )

    def test_minimizer_product_one(self):
        res = capacity(random_tuple(4, 12))
        assert float(np.prod(res.minimizer_x)) == pytest.approx(1.0, rel=1e-10)


class TestScaling:
    def test_fixture_diag(self):
        t = MatrixTuple([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        res = scale_to_doubly_stochastic(t)
        assert res.ds_defect < 1e-10
        np.testing.assert_allclose(
            res.transform_X, np.eye(2) / math.sqrt(3.0), atol=1e-12
        )
        assert capacity_via_scaling(t) == pytest.approx(9.0, rel=1e-10)

    def test_scaled_tuple_is_ds(self):
        for seed in range(3):
            t = random_tuple(3, 40 + seed)
            res = scale_to_doubly_stochastic(t)
            assert check_doubly_stochastic(res.scaled).is_doubly_stochastic

    def test_reconstruction(self):
        # scaled_i = alpha-normalized s_i X A_i X^H, slot by slot.
        t = random_tuple(3, 41)
        res = scale_to_doubly_stochastic(t)
        for s, a, b in zip(res.trace_scalars, t.matrices, res.scaled.matrices):
            np.testing.assert_allclose(
                s * (res.transform_X @ a @ res.transform_X.conj().T), b, atol=1e-8
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_matrix_reference(self, n, monkeypatch):
        # A NaN potential fails every comparison, so every step of the loop
        # is the plain Gurvits step: from s = 1 it takes the reference's
        # steps.  The loop keeps X = L of the last step where the reference
        # accumulates X_ref = L_k ... L_1; both satisfy X M X^* = I for the
        # same M = sum s_i A_i, so V = X X_ref^-1 is unitary and maps the
        # reference's tuple onto the loop's.
        calls = []
        monkeypatch.setattr(
            sys.modules["mixdisc.capacity"],
            "_potential",
            lambda totals, s, tol: calls.append(s) or np.full(len(s), np.nan),
        )
        for seed in range(3):
            t = random_tuple(n, 300 + 10 * n + seed)
            res = scale_to_doubly_stochastic(t)
            mats, x, scalars, iterations = _per_matrix_scaling(list(t.matrices))
            assert res.iterations == iterations
            np.testing.assert_allclose(res.trace_scalars, scalars, rtol=1e-14, atol=0)
            v = res.transform_X @ np.linalg.inv(x)
            np.testing.assert_allclose(v @ v.conj().T, np.eye(n), rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                res.scaled.matrices, v @ np.array(mats) @ v.conj().T, rtol=0, atol=1e-14
            )
        assert calls

    def test_decomposable_rejected(self):
        t = MatrixTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(NotIndecomposable):
            scale_to_doubly_stochastic(t)

    def test_non_psd_rejected(self):
        # The PSD precondition comes from the indecomposability scan alone.
        t = MatrixTuple([np.diag([1.0, -1.0]), np.eye(2)])
        for route in (scale_to_doubly_stochastic, capacity_via_scaling):
            with pytest.raises(PreconditionViolated):
                route(t)

    def test_singular_slot_sum_raises_in_the_loop(self, monkeypatch):
        # An indecomposable PSD tuple never reaches these checks, so the
        # precondition is bypassed: sum A_i = diag(2, 0) has no inverse root.
        monkeypatch.setattr(
            sys.modules["mixdisc.capacity"], "_rank_tests", lambda mats, w, tol: [(True, None)] * len(mats)
        )
        e1 = np.diag([1.0, 0.0])
        for route in (scale_to_doubly_stochastic, capacity_via_scaling):
            with pytest.raises(NotPositiveDefinite):
                route(MatrixTuple([e1, e1]))

    def test_slot_without_trace_raises_in_the_loop(self, monkeypatch):
        # (I, 0): the sum is I, so L = I, and the zero slot keeps trace 0.
        monkeypatch.setattr(
            sys.modules["mixdisc.capacity"], "_rank_tests", lambda mats, w, tol: [(True, None)] * len(mats)
        )
        for route in (scale_to_doubly_stochastic, capacity_via_scaling):
            with pytest.raises(SingularPencil, match="lost its trace"):
                route(MatrixTuple([np.eye(2), np.zeros((2, 2))]))

    def test_two_capacity_routes_agree(self):
        for seed in range(5):
            t = random_tuple(4, 90 + seed)
            assert capacity_via_scaling(t) == pytest.approx(
                capacity(t).value, rel=1e-10
            )


class TestSandwich:
    def test_upper_bound_is_correctly_rounded(self):
        # float(n^n) / float(n!) rounds twice and is first off at n = 17.
        for n in range(1, 41):
            assert n_pow_n_over_factorial(n) == n**n / math.factorial(n), n

    def test_ratio_extremes(self):
        n = 3
        jn = MatrixTuple([np.eye(n) / n] * n)
        ratio, ok = capacity_bound_report(jn)
        assert ok
        assert ratio == pytest.approx(n_pow_n_over_factorial(n), rel=1e-6)
        diag = MatrixTuple([np.diag([1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)])
        # ratio 1 at the diagonal permutation tuple: Cap = D = 1.
        ratio, ok = capacity_bound_report(diag)
        assert ok
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_random_ds_inside_sandwich(self):
        for seed in range(5):
            t = random_ds_tuple(4, 60 + seed)
            ratio, ok = capacity_bound_report(t)
            assert ok, ratio

    def test_unconverged_capacity_is_not_within(self, monkeypatch):
        # The same ratio from a result flagged as stalled is not reported
        # as inside the sandwich.
        t = random_ds_tuple(4, 60)
        ratio, ok = capacity_bound_report(t)
        assert ok
        mod = sys.modules["mixdisc.capacity"]
        real = mod.capacity
        monkeypatch.setattr(
            mod,
            "capacity",
            lambda *args: replace(real(*args), converged=False, stop_reason="stalled"),
        )
        assert capacity_bound_report(t) == (ratio, False)


def _wishart(n, rng):
    g = random_complex_gaussian(n, rng)
    return g @ g.conj().T


@st.composite
def ill_scaled_tuples(draw):
    """(tuple, slot scales c): Wishart slots multiplied by c_i = 10^k, |k| <= 6."""
    n = draw(st.integers(2, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.array([_wishart(n, rng) for _ in range(n)])
    c = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)))
    return MatrixTuple(base), c


@st.composite
def near_decomposable_tuples(draw):
    """Block-diagonal Wishart slots (a k + (n - k) split) plus delta * Wishart."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    delta = 10.0 ** draw(st.floats(-8.0, -2.0))
    first = np.arange(n) < k
    mats = []
    for i in range(n):
        block = first if i < k else ~first
        mats.append(_wishart(n, rng) * np.outer(block, block) + delta * _wishart(n, rng))
    return MatrixTuple(mats)


# Steps that scaling from s = 1 may take on the near-boundary and
# near-decomposable tuples below: it took at most 17 on 400 seeded
# near-boundary draws and at most 14 on 400 near-decomposable ones.
_SCALING_BOUND = 50


def _check_scaling(t):
    res = scale_to_doubly_stochastic(t)
    assert res.converged and res.stop_reason == "ds_tol"
    assert res.iterations <= _SCALING_BOUND
    assert res.ds_defect <= DEFAULT_TOL.ds_tol
    assert check_doubly_stochastic(res.scaled).is_doubly_stochastic


def _check_against_scaling(t, res):
    """The Newton result agrees with the cold scaling oracle wherever it converges.

    The oracle's loop takes tens of steps on these tuples; its cap is 2000
    here rather than its default 10000, so that a tuple so close to a
    decomposable one that it runs long is skipped rather than waited for.
    """
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sys.modules["mixdisc.capacity"], "SCALING_MAX_ITER", 2000)
            via = capacity_via_scaling(t)
    except (NonConvergence, NotIndecomposable, SingularPencil):
        return
    assert res.value == pytest.approx(via, rel=1e-6)


def _check_result_flags(res):
    assert res.stop_reason in ("roundoff", "stalled")
    assert res.converged == (res.stop_reason == "roundoff")


@settings(max_examples=30, deadline=None)
@given(ill_scaled_tuples())
def test_ill_scaled_sandwich_and_routes(case):
    base, c = case
    t = MatrixTuple(base.matrices * c[:, None, None])
    res = capacity(t)
    _check_result_flags(res)
    # Cap and D are both multiplied by prod(c); D is read on the unscaled tuple.
    ratio = res.value / float(np.prod(c)) / eval_polarized(base)
    assert 1.0 - 1e-6 <= ratio <= n_pow_n_over_factorial(t.n) + 1e-6
    assert res.value / float(np.prod(c)) == pytest.approx(capacity(base).value, rel=1e-8)
    _check_against_scaling(t, res)


@settings(max_examples=30, deadline=None)
@given(near_decomposable_tuples())
def test_near_decomposable_sandwich_and_routes(t):
    res = capacity(t)
    _check_result_flags(res)
    ratio, within = capacity_bound_report(t)
    assert within, ratio
    _check_against_scaling(t, res)


@settings(max_examples=30, deadline=None)
@given(near_decomposable_tuples())
def test_warm_scaling_reaches_ds_tol_near_decomposable(t):
    assume(is_indecomposable(t)[0])
    _check_scaling(t)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.floats(2.0, 6.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_one_newton_step_raises_with_the_result(n, seed, k, sign):
    # Slot 0 is scaled by 10^(+-k), at least 100x off balance, so that one
    # step from y = 0 cannot reach the minimum.
    rng = make_rng(seed)
    mats = np.array([_wishart(n, rng) for _ in range(n)])
    mats[0] *= 10.0 ** (sign * k)
    t = MatrixTuple(mats)
    with pytest.raises(NonConvergence) as info, pytest.MonkeyPatch.context() as m:
        m.setattr(sys.modules["mixdisc.capacity"], "CAPACITY_MAX_ITER", 1)
        capacity(t)
    res = info.value.result
    assert res.converged is False
    assert res.stop_reason == "max_iter"
    assert res.iterations == 1


def _cap_of(res):
    """Cap of a scaling's source, |det X|^(-2) / prod(trace_scalars), by the
    oracle's own arithmetic."""
    logdet = float(np.linalg.slogdet(res.transform_X)[1])
    return math.exp(-2.0 * logdet - float(np.sum(np.log(res.trace_scalars))))


def _near_boundary_tuple(seed, n=3):
    """n - 1 Wishart slots and a rank-one + 1e-6 I slot."""
    rng = make_rng(seed)
    mats = [_wishart(n, rng) for _ in range(n - 1)]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return MatrixTuple(mats + [np.outer(v, v.conj()) + 1e-6 * np.eye(n)])


@pytest.mark.parametrize("seed", [2, 7, 20])
def test_near_boundary_tuple_stops_at_roundoff(seed):
    # Round-off keeps the projected gradient of these tuples near 1e-8; the
    # Newton decrement shows that f is within round-off of its minimum, so
    # the result is converged.
    t = _near_boundary_tuple(seed)
    res = capacity(t)
    assert res.stop_reason == "roundoff" and res.converged
    assert res.iterations <= 20
    assert res.value == pytest.approx(capacity_via_scaling(t), rel=1e-10)


# Plain alternating scaling needs more than 10000 steps from s = 1 on seeds
# 24, 25, 26 and 51, and 11 to 84 even from the capacity minimizer on seeds
# 55, 138, 200, 201, 277, 378 and 399; the accelerated loop takes at most 17
# steps from s = 1 on seeds 0 to 399.
@pytest.mark.parametrize("seed", [*range(8), 24, 25, 26, 51, 55, 138, 200, 201, 277, 378, 399])
def test_oracle_converges_in_tens_of_steps_near_boundary(seed):
    t = _near_boundary_tuple(seed)
    res = scale_to_doubly_stochastic(t)
    assert res.converged and res.ds_defect <= DEFAULT_TOL.ds_tol
    assert res.iterations <= 50
    assert _cap_of(res) == pytest.approx(capacity(t).value, rel=1e-10)
    assert capacity_via_scaling(t) == _cap_of(res)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_oracle_with_every_extrapolation_rejected_is_plain_scaling(n, monkeypatch):
    # A NaN potential fails every comparison, so every step is the plain
    # Gurvits step: the oracle takes the plain reference's step count and
    # returns its Cap = |det X_ref|^(-2) / prod(s_ref) to rounding.
    calls = []
    monkeypatch.setattr(
        sys.modules["mixdisc.capacity"],
        "_potential",
        lambda totals, s, tol: calls.append(s) or np.full(len(s), np.nan),
    )
    for seed in range(3):
        t = random_tuple(n, 800 + 10 * n + seed)
        _, x, scalars, iterations = _per_matrix_scaling(list(t.matrices))
        plain_cap = 1.0 / (abs(np.linalg.det(x)) ** 2 * float(np.prod(scalars)))
        assert scale_to_doubly_stochastic(t).iterations == iterations
        assert capacity_via_scaling(t) == pytest.approx(plain_cap, rel=1e-12)
    assert calls


def test_oracle_max_iter_raises_with_the_first_alternating_step(monkeypatch):
    t = random_tuple(4, 17)
    monkeypatch.setattr(sys.modules["mixdisc.capacity"], "SCALING_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as info:
        capacity_via_scaling(t)
    res = info.value.result
    assert res.converged is False
    assert res.stop_reason == "max_iter"
    assert res.iterations == 1


def test_a_scaling_whose_defect_stops_falling_stops_stalled():
    # At ds_tol = 0 this tuple's slot-sum defect falls to rounding noise near
    # 2e-13 by step 16, above its 4 n eps floor (2.7e-15); without the stall
    # rule it ran all 10000 steps (1.2 to 2.1 s).  The noise sets new lows at
    # steps 17, 43, 44 and 57, none below a tenth of the low of step 16, so
    # none restarts the window: the tuple stops "stalled" at step 66, one
    # window after step 16, carrying the tuple it left.
    window = sys.modules["mixdisc.capacity"]._STALL_WINDOW
    with pytest.raises(NonConvergence, match="scaling stalled") as info:
        scale_to_doubly_stochastic(_near_boundary_tuple(0), Tolerances(ds_tol=0.0))
    res = info.value.result
    assert res.stop_reason == "stalled" and not res.converged
    assert window < res.iterations <= window + 20
    assert res.ds_defect < 1e-12


def test_warm_scaling_reaches_ds_tol_near_boundary():
    for seed in range(20):
        _check_scaling(_near_boundary_tuple(seed))


def _repeated_near_boundary_tuple(seed):
    """(R, R, W): a rank-one + 1e-6 I slot twice and a Wishart slot (n = 3).

    This is the kind of expansion ``check_theorem52`` makes of a tuple with one
    near-boundary slot.  cond(M) reaches 1e6 to 1e7 at the minimizer, so f
    carries rounding noise near 1e-8 and no line search can see a decrease
    once lambda^2 falls to that level.
    """
    rng = make_rng(seed)
    w = _wishart(3, rng)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    r = np.outer(v, v.conj()) + 1e-6 * np.eye(3)
    return MatrixTuple([r, r, w])


def _recorder(f, log):
    """f, appending the result of each call to ``log``."""

    def call(*args):
        log.append(f(*args))
        return log[-1]

    return call


# Seeds whose Newton iterates stall at round-off: the last line search finds
# no decrease while lambda^2 (about 1e-11) is above 256 u (1 + |f|) but below
# the noise estimate n u cond(M) (1 + |f|).  Which seeds do this depends on
# the rounding of each step, so the test checks that the stall happened.
@pytest.mark.parametrize("seed", [90, 120, 158])
def test_repeated_near_boundary_slot_stops_converged(seed, monkeypatch):
    # With the fixed round-off threshold alone these stop "stalled":
    # backtracking finds no decrease.  The conditioning-aware noise estimate
    # n u cond(M) (1 + |f|) reports them as converged at round-off.
    mod = sys.modules["mixdisc.capacity"]
    steps = []
    monkeypatch.setattr(mod, "_backtrack", _recorder(mod._backtrack, steps))
    t = _repeated_near_boundary_tuple(seed)
    res = capacity(t)
    assert steps[-1] is None
    assert res.stop_reason == "roundoff" and res.converged
    # Cap is as accurate as f's noise allows: within 1e-9 relative here.
    assert res.value == pytest.approx(capacity_via_scaling(t), rel=1e-8)


@pytest.mark.parametrize("seed", [1, 115, 181, 188])
def test_scaling_past_an_overflowing_candidate_matches_capacity(seed):
    # An Anderson candidate on these tuples has an s_i so small that w / s
    # overflows in the potential.  That only rejects the candidate: no
    # warning escapes (warnings are errors here) and Cap still matches.
    t = _repeated_near_boundary_tuple(seed)
    res = scale_to_doubly_stochastic(t)
    assert res.converged and res.ds_defect <= DEFAULT_TOL.ds_tol
    assert _cap_of(res) == pytest.approx(capacity(t).value, rel=1e-9)


@pytest.mark.parametrize("eps, stop", [(1e-5, "roundoff"), (1e-3, "stalled")])
def test_stall_counts_as_roundoff_only_within_the_noise_of_f(eps, stop, monkeypatch):
    # The seed-40 tuple rescaled so that y = 0 lies eps off its minimizer
    # along e_1 - e_2, where lambda^2 is about 2 eps^2, and a line search
    # that finds no decrease.  cond(M) is about 1e6 and |f| about 10 there,
    # so the noise estimate n u cond(M) (1 + |f|) is about 1e-8 and
    # 256 u (1 + |f|) about 6e-13: eps = 1e-5 puts lambda^2 inside that band,
    # where the stall is reclassified as round-off, and eps = 1e-3 above it.
    t = _repeated_near_boundary_tuple(40)
    x = capacity(t).minimizer_x
    start = MatrixTuple(t.matrices * (x * np.exp([eps, -eps, 0.0]))[:, None, None])
    seen = []

    def no_decrease(mats, y, f, d, lam2):
        seen.append((lam2, f))
        return None

    monkeypatch.setattr(sys.modules["mixdisc.capacity"], "_backtrack", no_decrease)
    res = capacity(start)
    ((lam2, f),) = seen
    ev = np.linalg.eigvalsh(start.matrices.sum(0))
    u = sys.float_info.epsilon
    assert lam2 > 256.0 * u * (1.0 + abs(f))
    assert (lam2 <= start.n * u * (ev[-1] / ev[0]) * (1.0 + abs(f))) == (stop == "roundoff")
    assert res.stop_reason == stop and res.iterations == 0
    assert res.converged == (stop == "roundoff")


def _mp_capacity(mats, y0, dps=40, steps=8):
    """Cap by undamped Newton in ``dps``-digit mpmath arithmetic from y0.

    The same objective and Hessian as the solver, with every product, the
    inverse and the solve in mpmath; from a start near the minimizer Newton
    converges quadratically, and the projected gradient norm at the last
    step is returned with Cap so that the caller can check it.
    """
    n = len(mats)
    with mpmath.workdps(dps):
        a = [mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in m]) for m in mats]
        y = [mpmath.mpf(float(v)) for v in y0 - y0.mean()]

        def pencil(y):
            m = mpmath.matrix(n, n)
            for yi, ai in zip(y, a):
                m += mpmath.exp(yi) * ai
            return m

        def trace(m):
            return mpmath.re(sum(m[k, k] for k in range(n)))

        for _ in range(steps):
            minv = pencil(y) ** -1
            q = [mpmath.exp(yi) * minv * ai for yi, ai in zip(y, a)]
            g = [trace(qi) for qi in q]
            r = [gi - sum(g) / n for gi in g]
            h = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    h[i, j] = (g[i] if i == j else 0) - trace(q[i] * q[j]) + mpmath.mpf(1) / n
            d = mpmath.lu_solve(h, mpmath.matrix([-ri for ri in r]))
            y = [yi + d[i] for i, yi in enumerate(y)]
        gnorm = mpmath.sqrt(sum(ri * ri for ri in r))
        return float(mpmath.re(mpmath.det(pencil(y)))), float(gnorm)


# Seeds 2, 6, 7, 9 and 22 read 1.3e-9 to 6.3e-9 off the reference under a
# stop at roundoff on the first point whose lambda^2 is inside the noise band
# [256 eps (1 + |f|), n eps cond(M) (1 + |f|)]; the shipped rule reads at
# most 3.1e-10 (seed 7).
@pytest.mark.parametrize("seed", [2, 6, 7, 9, 22, 40, 87, 88])
def test_repeated_near_boundary_capacity_matches_mpmath(seed):
    # cond(M) reaches 1e6 to 1e7 at these minimizers, the hardest case for
    # the float solver; its stop rule promises Cap to about f's noise.
    t = _repeated_near_boundary_tuple(seed)
    res = capacity(t)
    ref, gnorm = _mp_capacity(t.matrices, np.log(res.minimizer_x))
    assert gnorm < 1e-30
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_newton_solves_once_per_point_with_the_slots_side_by_side(monkeypatch):
    # One LU solve of M against an (n, n^2) right-hand side per point the
    # loop evaluates the gradient at: the start and each accepted step.
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(np.ndim(b)) or solve(a, b))
    t = random_tuple(4, 12)
    res = capacity(t)
    assert res.iterations >= 2
    assert calls == [2] * (res.iterations + 1)


def test_scaling_step_is_one_eigensolve_and_forms_only_the_returned_tuple(monkeypatch):
    # Every step makes one batched eigh of the candidate slot sums and no
    # other eigensolve; the (n, n, n) congruence runs once, on the returned
    # step (no rounding trouble on these tuples).
    mod = sys.modules["mixdisc.capacity"]
    for seed in range(3):
        t = random_tuple(5, 900 + seed)
        eigh, eigvalsh, formed = [], [], []
        monkeypatch.setattr(np.linalg, "eigh", _recorder(np.linalg.eigh, eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", _recorder(np.linalg.eigvalsh, eigvalsh))
        monkeypatch.setattr(mod, "_congruence", _recorder(mod._congruence, formed))
        (res,) = mod._scale_vector(t.matrices[None], DEFAULT_TOL)
        monkeypatch.undo()
        assert res.iterations >= 1
        assert len(eigh) == res.iterations and not eigvalsh
        assert len(formed) == 1
        np.testing.assert_array_equal(formed[0][0], res.scaled.matrices)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reported_ds_defect_is_the_returned_tuples(n):
    # The loop's own stop test is cheaper than the full defect; the reported
    # ds_defect must still be the full defect of the tuple it returns.
    eye = np.eye(n)
    for seed in range(1100 + 10 * n, 1104 + 10 * n):
        for t in (random_tuple(n, seed), _near_boundary_tuple(seed + 100, n)):
            res = scale_to_doubly_stochastic(t)
            mats = res.scaled.matrices
            assert res.ds_defect == sum(_trace_and_sum_violations(mats, mats.sum(0), eye))
            assert res.ds_defect <= DEFAULT_TOL.ds_tol


def test_full_defect_above_ds_tol_keeps_the_loop_going(monkeypatch):
    # Rounding can leave the formed tuple above ds_tol although the loop's
    # slot-sum test passed; the loop must then take another step, not return.
    mod = sys.modules["mixdisc.capacity"]
    plain = scale_to_doubly_stochastic(random_tuple(4, 17))
    check = mod._trace_and_sum_violations
    calls = []

    def first_fails(mats, total, eye):
        calls.append(mats)
        trace_v, sum_v = check(mats, total, eye)
        return (trace_v, 1.0) if len(calls) == 1 else (trace_v, sum_v)

    monkeypatch.setattr(mod, "_trace_and_sum_violations", first_fails)
    res = scale_to_doubly_stochastic(random_tuple(4, 17))
    assert len(calls) == 2
    assert res.converged and res.iterations == plain.iterations + 1
    assert res.ds_defect <= DEFAULT_TOL.ds_tol


@pytest.mark.parametrize("ds_tol", [0.0, 3e-16])
def test_a_ds_tol_below_rounding_stops_at_the_rounding_floor(ds_tol):
    # The full defect bottoms out near n eps; below the 4 n eps floor the
    # loop returns what rounding allows, flagged "roundoff", in a few steps.
    tol = Tolerances(ds_tol=ds_tol)
    for n in (2, 3, 4):
        floor = 4 * n * sys.float_info.epsilon
        for seed in range(4):
            res = scale_to_doubly_stochastic(random_tuple(n, 700 + 10 * n + seed), tol)
            assert res.converged and res.iterations <= 30
            assert res.stop_reason == ("ds_tol" if res.ds_defect <= ds_tol else "roundoff")
            assert res.ds_defect <= floor
    floor = Tolerances(ds_tol=4 * 3 * sys.float_info.epsilon)
    for t in random_ds_tuples(3, [1, 7920], tol):
        assert check_doubly_stochastic(t, floor).is_doubly_stochastic


def test_the_rounding_floor_leaves_default_tolerance_results_alone():
    for n in (2, 3, 4):
        res = scale_to_doubly_stochastic(random_tuple(n, 800 + n))
        assert res.stop_reason == "ds_tol" and res.ds_defect <= DEFAULT_TOL.ds_tol


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_newton_iteration_bound(n):
    for seed in range(8):
        res = capacity(random_tuple(n, 500 + 10 * n + seed))
        assert res.converged
        assert res.iterations <= 20


def test_failed_line_search_returns_a_flagged_result(monkeypatch):
    # A line search that finds no decrease while lambda^2 is above round-off
    # must come back flagged, not raise and not claim convergence.
    # The package re-exports the function ``capacity``, which shadows the module.
    monkeypatch.setattr(sys.modules["mixdisc.capacity"], "_backtrack", lambda *args: None)
    t = random_tuple(3, 5)
    res = capacity(t)
    assert res.stop_reason == "stalled"
    assert res.converged is False
    assert res.iterations == 0


def test_line_search_halvings_stop_at_the_rounding_of_y(monkeypatch):
    # An Armijo test that no step can meet: the search must give up once the
    # step is below the rounding of y (about 53 halvings from y = 0 with
    # ||d|| = 1), not after the ~1075 it takes s to underflow.
    mod = sys.modules["mixdisc.capacity"]
    objective = mod._objective
    calls = []
    monkeypatch.setattr(mod, "_objective", lambda mats, y: calls.append(y) or objective(mats, y))
    t = random_tuple(3, 5)
    y = np.zeros(3)
    f = objective(t.matrices, y)[0]
    d = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert mod._backtrack(t.matrices, y, f, d, 1e300) is None
    assert len(calls) <= 60


def _weak_rank_violating_tuple(n, seed):
    """n - 1 Wishart slots inside one (n - 2)-dimensional subspace, one full slot.

    sum A_i has full rank, but n - 1 slots span a space of rank n - 2, so the
    weak rank condition fails and Cap = 0.
    """
    rng = make_rng(seed)
    k = n - 2
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    basis = np.linalg.qr(g)[0]
    mats = [basis @ _wishart(k, rng) @ basis.conj().T for _ in range(n - 1)]
    return MatrixTuple(mats + [_wishart(n, rng)])


def test_singular_slot_sum_raises_at_the_first_point():
    # sum A_i = diag(2, 0) is exactly singular at y = 0, before any step: the
    # weak rank test reads it, and Newton's first point refuses it too.
    t = MatrixTuple([np.diag([1.0, 0.0])] * 2)
    for solve in (capacity, lambda t: sys.modules["mixdisc.capacity"]._newton(t.matrices)):
        with pytest.raises(SingularPencil, match="^sum A_i is singular; the tuple violates the weak rank condition$"):
            solve(t)


def test_a_capacity_below_the_log_floor_raises():
    # J_3 2^-400 has Cap = 2^-1200: the weak rank condition holds, but the
    # first point's det is below 1e-300.
    with pytest.raises(SingularPencil, match=r"^det\(sum e\^\{y_i\} A_i\) < 1e-300 .*, so Cap < 1e-300$"):
        capacity(MatrixTuple([np.eye(3) / 3 * 2.0**-400] * 3))


def test_an_indecomposable_tuple_with_a_slot_psd_only_within_psd_tol_raises():
    # No tight set: A_0 = diag(1, 1, -1e-7) has rank 2 and the other slots
    # full rank, so Newton runs on the whole tuple.  det(sum x_i A_i) =
    # (x_0 + x_1 + x_2)^2 (5.1e-8 (x_1 + x_2) - 1e-7 x_0) turns negative as
    # x_0 grows: Cap = 0.  At y = 0, g_0 = 2/3 - 50 < 0 beyond rounding.
    e = np.diag([1.0, 1.0, 5.1e-8])
    t = MatrixTuple([np.diag([1.0, 1.0, -1e-7]), e, e])
    with pytest.raises(SingularPencil, match=r"^w_i tr\(M\^-1 A_i\) = .* a slot is not PSD, so Cap = 0$"):
        capacity(t, replace(DEFAULT_TOL, psd_tol=1e-6))


def test_newton_hessian_without_its_unit_eigenvalue_raises():
    # q_i = I and g = (-1, -1) give H = -3/2 (1 1^T) - I, with eigenvalues
    # -4 and -1, where exact arithmetic keeps 1 on the ones vector.
    q = np.broadcast_to(np.eye(2)[:, None, :], (2, 2, 2))
    g = np.array([-1.0, -1.0])
    with pytest.raises(SingularPencil, match="^Newton Hessian lost its eigenvalue 1: M is singular$"):
        sys.modules["mixdisc.capacity"]._newton_direction(q, g, g - g.mean())


def test_numerically_singular_pencil_at_a_rounding_stop_raises():
    # Cap = 8e-17, and cond(sum e^{y_i} A_i) = 1e17 at every y.  Both slots
    # and their sum have rank 1 at rank_tol, so the weak rank test reads
    # Cap = 0 to working precision before any Newton step.
    t = MatrixTuple([np.diag([1.0, 1e-17]), np.diag([2.0, 2e-17])])
    with pytest.raises(SingularPencil, match="^sum A_i is singular; the tuple violates the weak rank condition$"):
        capacity(t)


def test_cap_zero_with_a_full_rank_sum_raises():
    # f falls linearly along the collapsing direction while its curvature
    # vanishes; the solver must not read that as convergence.
    e1 = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(SingularPencil):
        capacity(MatrixTuple([e1, e1, np.eye(3)]))


@pytest.mark.parametrize("delta, psd_tol", [(1e-7, 1e-6), (1e-5, 1e-4)])
def test_slot_psd_only_within_a_loose_psd_tol_raises(delta, psd_tol):
    # diag(1, -delta) passes the PSD check at psd_tol, but along x_1 -> inf the
    # pencil turns indefinite, so Cap = 0; Newton sees w_1 tr(M^-1 A_1) < 0 on
    # the way and must say so, without dividing by a non-positive cut.
    t = MatrixTuple([np.diag([1.0, -delta]), np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularPencil, match="not PSD"):
            capacity(t, replace(DEFAULT_TOL, psd_tol=psd_tol))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_weak_rank_violation_raises(n, seed):
    with pytest.raises(SingularPencil):
        capacity(_weak_rank_violating_tuple(n, seed))


def test_decomposable_tuple_with_a_flat_direction():
    # (e_1 e_1^T, 0 + B, 0 + C): on sum y = 0, f depends on y_2 - y_3 alone,
    # so H of the whole tuple is singular on the mean-zero subspace.  Slot 0
    # is a tight set, so capacity solves the parts ({0} on e_1) and (B, C),
    # neither with a flat direction.  Cap is the minimum over u of
    # det(e^u B + e^-u C), found here by ternary search on the convex f(u).
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([[1.0, -0.3], [-0.3, 3.0]])
    mats = np.zeros((3, 3, 3))
    mats[0, 0, 0] = 1.0
    mats[1, 1:, 1:] = b
    mats[2, 1:, 1:] = c

    def f(u):
        return math.log(np.linalg.det(math.exp(u) * b + math.exp(-u) * c))

    lo, hi = -5.0, 5.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        lo, hi = (m1, hi) if f(m1) > f(m2) else (lo, m2)
    res = capacity(MatrixTuple(mats))
    assert res.converged
    u = (lo + hi) / 2.0
    assert res.value == pytest.approx(math.exp(f(u)), rel=1e-12)
    # Each part's minimizer, with product 1 on each part.
    assert res.minimizer_x[0] == 1.0
    np.testing.assert_allclose(res.minimizer_x[1:], [math.exp(u), math.exp(-u)], rtol=1e-6)
