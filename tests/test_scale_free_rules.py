"""One PSD rule and one definiteness rule, both in ``core``, each relative to
the scale of the object checked: scaling the input by a power of two changes
no verdict."""

import numpy as np
import pytest

from mixdisc.capacity import capacity, scale_to_doubly_stochastic
from mixdisc.core import (
    DEFAULT_TOL,
    NotPositiveDefinite,
    PreconditionViolated,
    _gram,
    spawn_seeds,
)
from mixdisc.discriminant import MatrixTuple, _require_psd
from mixdisc.hyperbolic import HyperbolicPencil, pencil_from_tuple, roots
from mixdisc.structure import is_indecomposable

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
        ([_gram(4, s) for s in spawn_seeds(5, 4)], True),
        ([np.diag([1.0, -1e-8]), np.eye(2)], False),
        (TINY_NOT_PSD, False),
    ],
    ids=["wishart", "slightly-indefinite", "tiny-indefinite"],
)
def test_the_psd_verdict_does_not_depend_on_scale(mats, psd):
    assert [_verdict([c * a for a in mats]) for c in POWERS] == [psd] * len(POWERS)
