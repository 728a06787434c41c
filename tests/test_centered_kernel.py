"""Accuracy and property tests of the centered (Glynn-form) subset kernel.

One eps-enumeration kernel evaluates D (``eval_polarized``), permanents,
the gradients Q_i and hyperbolic mixed values; these tests hold each of them
to an independent route: closed forms at the gate sizes, the permutation-sum
oracle, brute-force permanents and a per-mask polarization of p.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdisc.core import make_rng, random_complex_gaussian, random_hermitian
from mixdisc.discriminant import (
    MatrixTuple,
    _centered_sum,
    eval_polarized,
    eval_sigma_det,
    gradient,
    permanent,
)
from mixdisc.extremal import dnp_family_value
from mixdisc.genaf import af_lower_bound_experiment
from mixdisc.hyperbolic import HyperbolicPencil, mixed_value


class TestGateAccuracy:
    @pytest.mark.parametrize("n", [14, 16, 18])
    def test_jn_closed_form(self, n):
        d = eval_polarized(MatrixTuple([np.eye(n) / n] * n))
        expected = math.factorial(n) / n**n
        assert abs(d - expected) <= 1e-12 * expected

    def test_dnp_family_n16(self):
        # dnp_family_value itself checks D(P/n, .., P/n) = (n!/n^n) det P;
        # here the identity must hold to 1e-10 relative.
        n = 16
        rng = make_rng(2016)
        for _ in range(10):
            g = (rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))) / math.sqrt(2.0)
            w = g @ g.conj().T
            p = w * (n / float(np.trace(w).real))
            value = dnp_family_value(p)
            expected = math.factorial(n) / n**n * float(np.linalg.det(p).real)
            assert abs(value - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("n", [6, 10, 14, 16])
    def test_magnitude_sum_covers_the_error(self, n):
        # The kernel's second result, sum |terms|, scaled by n times the unit
        # round-off, must cover the actual error on J_n.
        rows = np.array([np.eye(n) / n] * n).reshape(n, n * n)
        value, magnitude = _centered_sum(rows, lambda s: np.linalg.det(s.reshape(-1, n, n)))
        assert abs(value - math.factorial(n) / n**n) <= n * 2.0**-53 * magnitude

    def test_af_experiment_n20_is_exact(self):
        r = af_lower_bound_experiment(20)
        assert r.per_e == 2.0
        assert r.per_alpha1 == 2.0**10
        assert r.per_alpha2 == 2.0**10


# ---------------------------------------------------------------------------
# property tests, n <= 7


def _rank_one(n, rng, real):
    v = rng.standard_normal(n) if real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(v, v.conj())


def _wishart(n, rng, real):
    g = rng.standard_normal((n, n)) if real else random_complex_gaussian(n, rng)
    return g @ g.conj().T / n


@st.composite
def psd_tuples(draw):
    """PSD tuples: J_n, real-only ones and mixtures with rank-one and repeated slots."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["jn", "real", "mixed"]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "jn":
        return MatrixTuple([np.eye(n) / n] * n)
    mats = []
    for _ in range(n):
        slot = draw(st.sampled_from(["wishart", "rank_one", "repeat"]))
        real = kind == "real" or draw(st.booleans())
        if slot == "repeat" and mats:
            mats.append(mats[-1])
        elif slot == "rank_one":
            mats.append(_rank_one(n, rng, real))
        else:
            mats.append(_wishart(n, rng, real))
    return MatrixTuple(mats)


def _norm_scale(mats) -> float:
    """(sum ||A_i||_2)^n: bounds every |det(sum eps_i A_i)| and, by the
    multinomial theorem, n! prod ||A_i||_2 >= |D| (Hadamard) as well."""
    return sum(float(np.linalg.norm(m, 2)) for m in mats) ** len(mats)


def _close(a, b, scale) -> bool:
    return abs(a - b) <= 1e-10 * abs(b) + 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(psd_tuples())
def test_polarized_matches_sigma_det(t):
    assert _close(eval_polarized(t), eval_sigma_det(t), _norm_scale(t.matrices))


@settings(max_examples=40, deadline=None)
@given(psd_tuples(), st.integers(0, 2**32 - 1))
def test_gradient_is_the_slot_functional(t, seed):
    rng = make_rng(seed)
    g = gradient(t)
    for i in range(t.n):
        x = random_hermitian(t.n, rng)
        t_x = t.replaced(i, x)
        via_q = float(np.trace(x @ g.Q[i]).real)
        assert _close(via_q, eval_polarized(t_x), _norm_scale(t_x.matrices))


def _brute_permanent(a):
    n = a.shape[0]
    return sum(math.prod(a[i, s[i]] for i in range(n)) for s in itertools.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.booleans(), st.integers(0, 2**32 - 1))
def test_permanent_matches_brute_force(n, real, seed):
    rng = make_rng(seed)
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    value = permanent(a)
    assert isinstance(value, complex) != real
    assert _close(value, _brute_permanent(a), _brute_permanent(np.abs(a)))


def _per_mask_mixed_value(pencil, xs):
    """sum over S of (-1)^(n-|S|) p(sum_{i in S} x_i), one det per mask."""
    n = len(xs)
    total = 0.0
    for mask in range(1, 1 << n):
        members = [xs[i] for i in range(n) if mask >> i & 1]
        sign = -1.0 if (n - len(members)) % 2 else 1.0
        total += sign * pencil.value(np.sum(members, axis=0))
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_mixed_value_matches_per_mask_polarization(n, m, real, seed):
    rng = make_rng(seed)
    extra = [_wishart(n, rng, real) - _wishart(n, rng, real) for _ in range(m - 1)]
    pencil = HyperbolicPencil([np.eye(n)] + extra, np.eye(m)[0])
    xs = [rng.standard_normal(m) for _ in range(n)]
    scale = _norm_scale([pencil.at(x) for x in xs])
    assert _close(mixed_value(pencil, xs), _per_mask_mixed_value(pencil, xs), scale)
