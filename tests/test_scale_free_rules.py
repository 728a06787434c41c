"""One PSD rule and one definiteness rule, both in ``core``, and the rank
tests of ``structure``, each relative to the scale of the object checked:
scaling the input by a power of two changes no verdict."""

from itertools import islice

import numpy as np
import pytest

from mixdisc.capacity import capacity, scale_to_doubly_stochastic
from mixdisc.core import (
    DEFAULT_TOL,
    NotPositiveDefinite,
    PreconditionViolated,
    _wishart,
    iter_seeds,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import MatrixTuple, _require_psd, eval_polarized
from mixdisc.extremal import random_ds_tuple
from mixdisc.hyperbolic import HyperbolicPencil, pencil_from_tuple, roots
from mixdisc.structure import is_indecomposable, positivity_rank_test

POWERS = [2.0**j for j in range(-100, 101)]


def test_pencil_of_a_scaled_jn_has_unit_roots():
    for c in POWERS:
        p = pencil_from_tuple(MatrixTuple([c * np.eye(3) / 3] * 3))
        np.testing.assert_allclose(roots(p, p.e).lam, np.ones(3), rtol=0, atol=1e-12)


def test_an_indefinite_direction_is_a_precondition_violation():
    # The pencil lets the inverse square root decide; its exception keeps
    # both contracts.
    with pytest.raises(NotPositiveDefinite):
        HyperbolicPencil([np.diag([1.0, -1.0])], np.ones(1))
    assert issubclass(NotPositiveDefinite, PreconditionViolated)


# The first slot has eigenvalue -1e-10 at entry scale 1e-10: not PSD at any
# scale, however small its entries are next to psd_tol.
TINY_NOT_PSD = [np.diag([1e-12, -1e-10]), np.diag([1e-12, 1e-12])]


@pytest.mark.parametrize("route", [capacity, is_indecomposable, scale_to_doubly_stochastic])
def test_a_tiny_non_psd_tuple_is_a_precondition_violation(route):
    with pytest.raises(PreconditionViolated, match="not PSD"):
        route(MatrixTuple(TINY_NOT_PSD))


def _verdict(mats):
    try:
        _require_psd(MatrixTuple(mats), DEFAULT_TOL)
    except PreconditionViolated:
        return False
    return True


@pytest.mark.parametrize(
    "mats, psd",
    [
        ([_wishart(4, s) for s in islice(iter_seeds(5), 4)], True),
        ([np.diag([1.0, -1e-8]), np.eye(2)], False),
        (TINY_NOT_PSD, False),
    ],
    ids=["wishart", "slightly-indefinite", "tiny-indefinite"],
)
def test_the_psd_verdict_does_not_depend_on_scale(mats, psd):
    assert [_verdict([c * a for a in mats]) for c in POWERS] == [psd] * len(POWERS)


def _rotated_blocks():
    """Doubly stochastic blocks of 2 and 3 slots on complementary
    coordinates, the slots permuted and conjugated by a unitary."""
    mats = np.zeros((5, 5, 5), dtype=np.complex128)
    mats[:2, :2, :2] = random_ds_tuple(2, 3).matrices
    mats[2:, 2:, 2:] = random_ds_tuple(3, 4).matrices
    rng = make_rng(5)
    u = np.linalg.qr(random_complex_gaussian(5, rng))[0]
    return list(u @ mats[rng.permutation(5)] @ u.conj().T)


def _planted_violation():
    """Rank-two slots, four of which share one plane: their sum has rank 2."""
    rng = make_rng(6)
    g = [random_complex_gaussian(6, rng)[:, :2] for _ in range(6)]
    plane = g[0]
    for i in (1, 2, 3):
        g[i] = plane @ random_complex_gaussian(2, rng)
    return [a @ a.conj().T for a in g]


@pytest.mark.parametrize(
    "mats, indecomposable, weak",
    [
        ([_wishart(4, s) for s in islice(iter_seeds(5), 4)], True, True),
        (_rotated_blocks(), False, True),
        (_planted_violation(), False, False),
    ],
    ids=["wishart", "rotated-blocks", "planted-violation"],
)
def test_the_rank_verdicts_do_not_depend_on_scale(mats, indecomposable, weak):
    verdict = is_indecomposable(MatrixTuple(mats))
    assert verdict[0] is indecomposable
    for c in POWERS:
        t = MatrixTuple([c * a for a in mats])
        assert is_indecomposable(t) == verdict
        assert positivity_rank_test(t) is weak


def test_each_slot_is_ranked_at_its_own_scale():
    # D = 1e-10 > 0, so the weak rank condition holds, however small the
    # second slot is next to the first.
    t = MatrixTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1e-10])])
    assert eval_polarized(t) > 0
    assert positivity_rank_test(t)
