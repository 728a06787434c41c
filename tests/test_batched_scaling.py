"""The batched scaling loop and the batched sampler against their one-tuple calls.

``capacity._scale_vector`` scales a (B, n, n, n) stack with per-tuple stop
tests, Anderson histories and exceptions; ``capacity._scale_stack`` runs the
indecomposability test before it, ``scale_to_doubly_stochastic`` is their
one-tuple call and ``extremal.random_ds_tuples`` their sampler.  A tuple's
result must not depend on the batch it came in, bit for bit.
"""

import sys

import numpy as np
import pytest

from mixdisc.core import (
    DEFAULT_TOL,
    NonConvergence,
    NotIndecomposable,
    NotPositiveDefinite,
    SamplerExhausted,
    SingularPencil,
    _wishart,
    iter_seeds,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import MatrixTuple
from mixdisc.extremal import random_ds_tuple, random_ds_tuples

_CAP = sys.modules["mixdisc.capacity"]


def _wishart_tuple(n, seed):
    """The n Wishart slots of one generator: a random_ds_tuple draw."""
    g = random_complex_gaussian((n, n, n), make_rng(seed))
    return MatrixTuple(g @ g.conj().swapaxes(-1, -2))


def _near_boundary_tuple(seed, n=3):
    """n - 1 Wishart slots and a rank-one + 1e-6 I slot: 14 to 17 steps."""
    rng = make_rng(seed)
    mats = []
    for _ in range(n - 1):
        g = random_complex_gaussian(n, rng)
        mats.append(g @ g.conj().T)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return MatrixTuple(mats + [np.outer(v, v.conj()) + 1e-6 * np.eye(n)])


def _fresh(t):
    """The same slots in a new tuple, whose memo is empty."""
    return MatrixTuple(t.matrices)


def _bits(res):
    """Every array and number of a ScalingResult, as bytes and floats."""
    return (
        res.scaled.matrices.tobytes(),
        res.transform_X.tobytes(),
        res.trace_scalars.tobytes(),
        res.ds_defect,
        res.iterations,
        res.converged,
        res.stop_reason,
    )


def _stack(tuples):
    """The slots of ``tuples`` as one stack, and their eigenvalues."""
    mats = np.array([t.matrices for t in tuples])
    return mats, np.linalg.eigvalsh(mats)


def _alone(mats):
    (res,) = _CAP._scale_vector(mats[None], DEFAULT_TOL)
    return res


def test_a_tuple_scaled_in_a_batch_has_the_bits_of_its_own_scaling():
    # A near-boundary tuple stays in the loop about twice as long as the
    # Wishart tuples around it, so they leave the batch at different steps.
    tuples = [_wishart_tuple(3, 11), _near_boundary_tuple(7)]
    tuples += [_wishart_tuple(3, 12), _wishart_tuple(3, 13)]
    batch = _CAP._scale_vector(np.array([t.matrices for t in tuples]), DEFAULT_TOL)
    steps = [res.iterations for res in batch]
    assert steps[1] >= 14 and max(steps[0], steps[2], steps[3]) <= 10
    for t, res in zip(tuples, batch):
        assert _bits(res) == _bits(_alone(t.matrices))
    # The same through the precondition: one _scale_stack call gives what
    # scale_to_doubly_stochastic gives each tuple on its own.
    together = _CAP._scale_stack(*_stack(tuples), DEFAULT_TOL)
    for t, res in zip(tuples, together):
        assert _bits(res) == _bits(_CAP.scale_to_doubly_stochastic(_fresh(t)))


def test_results_are_kept_on_their_tuples():
    # The one-tuple call keeps its result on its tuple; the stack route it
    # calls reads arrays and keeps nothing.
    tuples = [_wishart_tuple(4, 21), _wishart_tuple(4, 22)]
    results = _CAP._scale_stack(*_stack(tuples), DEFAULT_TOL)
    for t, res in zip(tuples, results):
        kept = _CAP.scale_to_doubly_stochastic(t)
        assert _CAP.scale_to_doubly_stochastic(t) is kept and _bits(kept) == _bits(res)


def test_a_failing_tuple_leaves_its_batch_mates_unchanged():
    # (e1 e1*, e1 e1*) sums to a singular M: NotPositiveDefinite at the first
    # step.  (I, 0) is doubly stochastic but for a slot without trace, and
    # (W, 0) loses the trace of its zero slot in the first step: both raise
    # SingularPencil, one when the tuple is formed and one inside the loop.
    # None passes the indecomposability test, so the loop is called directly.
    e1 = np.diag([1.0, 0.0])
    zero = np.zeros((2, 2))
    good = [_wishart_tuple(2, 31 + k) for k in range(4)]
    bad = [[e1, e1], [np.eye(2), zero], [_wishart(2, 5), zero]]
    stack = [good[0].matrices]  # good, bad, good, bad, good, bad, good
    for b, g in zip(bad, good[1:]):
        stack += [b, g.matrices]
    out = _CAP._scale_vector(np.array(stack, dtype=np.complex128), DEFAULT_TOL)
    assert isinstance(out[1], NotPositiveDefinite)
    for k in (3, 5):
        assert isinstance(out[k], SingularPencil) and "lost its trace" in str(out[k])
    for t, res in zip(good, out[0::2]):
        assert _bits(res) == _bits(_alone(t.matrices))


def test_a_failure_and_a_result_leave_at_the_same_retirement_point(monkeypatch):
    # (e1 e1*, e1 e1*) fails in step 0 (its M is not definite) and
    # (I/2, 3 I/2) is doubly stochastic after that step: both leave at the
    # top of iteration 1, so step 1 solves for the two Wishart tuples alone.
    e1 = np.diag([1.0, 0.0])
    wisharts = [_wishart_tuple(2, 51), _wishart_tuple(2, 52)]
    stack = [wisharts[0].matrices, [e1, e1], [np.eye(2) / 2, 1.5 * np.eye(2)]]
    stack = np.array(stack + [wisharts[1].matrices], dtype=np.complex128)
    sizes, finished = [], []
    eigh, finish = _CAP._eigh, _CAP._finish

    def counted_eigh(m):
        sizes.append(len(m))
        return eigh(m)

    def recorded_finish(a, s, x, eye, it, *rest):
        result = finish(a, s, x, eye, it, *rest)
        finished.append((a.tobytes(), it, result is not None))
        return result

    monkeypatch.setattr(_CAP, "_eigh", counted_eigh)
    monkeypatch.setattr(_CAP, "_finish", recorded_finish)
    out = _CAP._scale_vector(stack, DEFAULT_TOL)
    monkeypatch.undo()
    assert isinstance(out[1], NotPositiveDefinite)
    assert out[2].iterations == 1 and out[2].converged
    assert (stack[2].tobytes(), 1, True) in finished
    assert sizes[:2] == [4, 2]
    for t, res in zip(wisharts, out[0::3]):
        assert _bits(res) == _bits(_alone(t.matrices))


def test_an_empty_stack_ends_the_loop_at_once():
    # The loop returns at its retirement point once no tuple is left, which
    # an empty stack reaches before its first step.
    assert _CAP._scale_vector(np.zeros((0, 3, 3, 3), complex), DEFAULT_TOL) == []


def test_a_stack_of_decomposable_tuples_scales_nothing():
    # Every tuple fails the indecomposability test, so the loop runs on an
    # empty stack: one NotIndecomposable per row, in stack order.
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    tuples = [MatrixTuple([e1, e2]), MatrixTuple([e2, e1]), MatrixTuple([np.eye(2), np.diag([2.0, 0.0])])]
    out = _CAP._scale_stack(*_stack(tuples), DEFAULT_TOL)
    assert len(out) == 3 and all(isinstance(res, NotIndecomposable) for res in out)


def test_each_batched_not_positive_definite_names_its_own_eigenvalues():
    # Two tuples whose slot sums are diag(0, 3) and diag(7, 0), about a
    # Wishart tuple: each failure reports the eigenvalues of its own sum, as
    # its own B = 1 run does.
    bad = [[np.diag([0.0, 1.0]), np.diag([0.0, 2.0])], [np.diag([5.0, 0.0]), np.diag([2.0, 0.0])]]
    stack = np.array([bad[0], _wishart_tuple(2, 61).matrices, bad[1]], dtype=np.complex128)
    out = _CAP._scale_vector(stack, DEFAULT_TOL)
    for k, top in ((0, 3.0), (2, 7.0)):
        assert isinstance(out[k], NotPositiveDefinite)
        assert f"(eigenvalues {np.array([0.0, top])})" in str(out[k])
        assert str(out[k]) == str(_alone(stack[k]))
    assert not isinstance(out[1], Exception)


def test_a_tuple_at_the_cap_leaves_its_batch_mates_unchanged(monkeypatch):
    # With a cap of 10 steps the near-boundary tuple stops unconverged; the
    # Wishart tuples, done in fewer, keep the bits of an uncapped scaling.
    tuples = [_wishart_tuple(3, 41), _near_boundary_tuple(3), _wishart_tuple(3, 42)]
    uncapped = [_CAP.scale_to_doubly_stochastic(_fresh(t)) for t in tuples]
    assert uncapped[1].iterations > 10 >= max(uncapped[0].iterations, uncapped[2].iterations)
    monkeypatch.setattr(_CAP, "SCALING_MAX_ITER", 10)
    out = _CAP._scale_stack(*_stack(tuples), DEFAULT_TOL)
    assert isinstance(out[1], NonConvergence)
    assert (out[1].result.iterations, out[1].result.stop_reason) == (10, "max_iter")
    assert _bits(out[0]) == _bits(uncapped[0]) and _bits(out[2]) == _bits(uncapped[2])
    with pytest.raises(NonConvergence):
        _CAP.scale_to_doubly_stochastic(_fresh(tuples[1]))


def test_random_ds_tuples_retries_a_seed_at_the_cap_from_its_next_child(monkeypatch):
    # At a cap of 6 steps some first draws do not converge; their seeds draw
    # again from their next child, as random_ds_tuple does, and the others
    # keep their tuples.
    n, seeds = 4, list(range(20))
    plain = random_ds_tuples(n, seeds)
    monkeypatch.setattr(_CAP, "SCALING_MAX_ITER", 6)
    capped = random_ds_tuples(n, seeds)
    for seed, t in zip(seeds, capped):
        assert t.matrices.tobytes() == random_ds_tuple(n, seed).matrices.tobytes()
    same = [a.matrices.tobytes() == b.matrices.tobytes() for a, b in zip(plain, capped)]
    retried = [j for j, kept in enumerate(same) if not kept]
    assert 0 < len(retried) < len(seeds)
    for j in retried:
        # The first child whose draw scales within the cap gives the tuple.
        for k, child in enumerate(iter_seeds(seeds[j])):
            res = _alone(_wishart_tuple(n, child).matrices)
            if not isinstance(res, Exception):
                break
        assert k >= 1 and capped[j].matrices.tobytes() == res.scaled.matrices.tobytes()


def test_a_seed_that_never_converges_exhausts_the_sampler(monkeypatch):
    monkeypatch.setattr(_CAP, "SCALING_MAX_ITER", 0)
    for draw in (lambda: random_ds_tuples(3, [5, 6]), lambda: random_ds_tuple(3, 5)):
        with pytest.raises(SamplerExhausted, match="100 draws"):
            draw()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_ds_tuples_are_random_ds_tuple_bit_for_bit(n):
    seeds = [3 * k + n for k in range(12)]
    batch = random_ds_tuples(n, seeds)
    again = random_ds_tuples(n, seeds[::-1])[::-1]  # another batch order
    for seed, a, b in zip(seeds, batch, again):
        ref = random_ds_tuple(n, seed).matrices.tobytes()
        assert a.matrices.tobytes() == ref == b.matrices.tobytes()
    assert random_ds_tuples(n, []) == []
