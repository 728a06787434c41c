"""Capacity of tuples with tight sets: proper S with rank(sum_S A_i) = |S|.

The family: slot 0 is g g^*, for one complex Gaussian column g, and slot
i >= 1 is G_i G_i^*, with G_i an n x r_i complex Gaussian and r_i uniform in
1..n, all from one ``default_rng(11)`` stream over n = 2..6.  Slot 0 alone
is always a tight set, so the whole tuple has no finite minimizer; capacity
peels its tight sets and multiplies the capacities of the parts.  Before the
peel, ``capacity`` raised a false ``SingularPencil`` on 332 of the 500
draws of 100 per n, read 9 values more than 1e-12 below D, and hit Newton's
step cap on one.
"""

import sys

import numpy as np
import pytest

from mixdisc.capacity import capacity, capacity_bound_report, n_pow_n_over_factorial
from mixdisc.core import NonConvergence, _below, random_complex_gaussian
from mixdisc.discriminant import MatrixTuple, eval_polarized


def _family(per_n):
    """(n, draw, slot ranks, tuple) for per_n draws at each n = 2..6, in
    stream order."""
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        for k in range(per_n):
            g = random_complex_gaussian((n, 1), rng)
            mats, ranks = [g @ g.conj().T], [1]
            for _ in range(1, n):
                ranks.append(int(rng.integers(1, n + 1)))
                h = random_complex_gaussian((n, ranks[-1]), rng)
                mats.append(h @ h.conj().T)
            yield n, k, ranks, MatrixTuple(mats)


_FAMILY = list(_family(30))


def _inside_the_sandwich(n, cap, d):
    """D <= Cap <= n^n / n! D, each side by ``core._below``'s slack."""
    return not (_below(cap, d) or _below(d, cap / n_pow_n_over_factorial(n)))


@pytest.mark.parametrize("n", range(2, 7))
def test_every_family_capacity_converges_inside_the_sandwich(n):
    for _, _, _, t in (row for row in _FAMILY if row[0] == n):
        res = capacity(t)
        assert res.converged and res.stop_reason == "roundoff"
        assert _inside_the_sandwich(n, res.value, eval_polarized(t))
        # Slot 0 is peeled first as its own 1 x 1 part, whose minimizer is 1.
        assert res.minimizer_x[0] == 1.0


def test_the_bound_report_holds_on_the_family():
    assert all(capacity_bound_report(t)[1] for _, _, _, t in _FAMILY)


def test_cap_equals_d_at_n2_with_ranks_one_and_two():
    # Both parts are 1 x 1, so Cap and D are both the product of the two
    # compressed scalars.
    tuples = [t for n, _, ranks, t in _FAMILY if n == 2 and ranks == [1, 2]]
    assert tuples
    for t in tuples:
        assert capacity(t).value == pytest.approx(eval_polarized(t), rel=1e-12)


def test_the_draw_that_hit_newtons_step_cap_converges():
    # Draw 77 at n = 6 of the 100-per-n stream ran Newton to its 100-step
    # cap on the whole tuple; its parts take 4 steps together.
    n, _, ranks, t = next(row for row in _family(100) if row[:2] == (6, 77))
    assert ranks == [1, 6, 2, 4, 3, 6]
    res = capacity(t)
    assert res.converged and res.iterations <= 20
    assert _inside_the_sandwich(n, res.value, eval_polarized(t))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_rank_one_slot_factors_out_with_its_squared_norm(n):
    # Cap(v v^*, A_2, ..) = |v|^2 Cap(W^* A_j W) and D likewise, with W an
    # orthonormal basis of the complement of v.
    rng = np.random.default_rng(n)
    v = random_complex_gaussian((n, 1), rng)
    rest = [g @ g.conj().T for g in random_complex_gaussian((n - 1, n, n), rng)]
    w = np.linalg.qr(np.hstack([v, random_complex_gaussian((n, n - 1), rng)]))[0][:, 1:]
    t = MatrixTuple([v @ v.conj().T, *rest])
    compressed = MatrixTuple([w.conj().T @ a @ w for a in rest])
    norm2 = float((v.conj().T @ v).real[0, 0])
    assert capacity(t).value == pytest.approx(norm2 * capacity(compressed).value, rel=1e-12)
    assert eval_polarized(t) == pytest.approx(norm2 * eval_polarized(compressed), rel=1e-12)


def test_a_part_at_its_step_cap_raises_with_the_combined_result(monkeypatch):
    # The 1 x 1 parts stop "roundoff" at their start; a larger part needs a
    # step, so at a cap of 0 the combined result is "max_iter".
    monkeypatch.setattr(sys.modules["mixdisc.capacity"], "CAPACITY_MAX_ITER", 0)
    t = next(t for n, _, ranks, t in _FAMILY if n == 4 and ranks.count(1) == 1)
    with pytest.raises(NonConvergence) as info:
        capacity(t)
    res = info.value.result
    assert res.stop_reason == "max_iter" and not res.converged and res.iterations == 0
    assert res.minimizer_x[0] == 1.0
