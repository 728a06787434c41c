"""One inverse square root: every M^(-1/2) comes from one Hermitian eigensolve
under the one positive-definiteness rule of ``core._definite``."""

import sys

import numpy as np
import pytest

from mixdisc import pascal
from mixdisc.core import (
    DEFAULT_TOL,
    NonConvergence,
    NotPositiveDefinite,
    inv_sqrt_psd,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import MatrixTuple
from mixdisc.hyperbolic import HyperbolicPencil

_CAP = sys.modules["mixdisc.capacity"]


def _count_eigensolves(monkeypatch):
    """Record every np.linalg.eigh and eigvalsh call; returns the record list."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counted(*args, _solve=solve, **kwargs):
            calls.append(None)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_pencil_runs_one_hermitian_eigensolve(monkeypatch):
    rng = make_rng(3)
    g = [random_complex_gaussian(4, rng) for _ in range(3)]
    mats = [x @ x.conj().T for x in g]
    calls = _count_eigensolves(monkeypatch)
    HyperbolicPencil(mats, np.ones(3))
    assert len(calls) == 1


@pytest.mark.parametrize("sampler", [pascal.sample_separable_ds, pascal.sample_block_ds])
@pytest.mark.parametrize("n", [2, 3])
def test_sampler_constructs_one_block_matrix(sampler, n, monkeypatch):
    built = []

    class Counted(pascal.BlockMatrix):
        def __init__(self, blocks):
            built.append(None)
            super().__init__(blocks)

    monkeypatch.setattr(pascal, "BlockMatrix", Counted)
    for seed in range(3):
        built.clear()
        sampler(n, seed)
        assert len(built) == 1


def _at_the_threshold(factor):
    """A 2 x 2 Hermitian M with eigenvalues w_max = 1e3 and
    w_min = psd_tol w_max factor, rotated so that its entries stay near
    w_max / 2 and only its eigenvalues show w_min."""
    w_max = 1e3
    w = np.array([w_max, DEFAULT_TOL.psd_tol * w_max * factor])
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    return (u * w) @ u.conj().T


def _one_scaling_step(m):
    """One step of the tuple scaling loop from s = 1, on slots summing to M;
    the loop's outcome for the tuple is raised when it is an exception."""
    (res,) = _CAP._scale_vector(MatrixTuple([m / 2.0, m / 2.0]).matrices[None], DEFAULT_TOL, 1)
    if isinstance(res, Exception):
        raise res
    return res


def _accepts(route, m):
    try:
        route(m)
    except NotPositiveDefinite:
        return False
    except NonConvergence:  # got past the inverse square root
        pass
    return True


@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
def test_every_route_applies_the_same_rule(factor):
    m = _at_the_threshold(factor)
    routes = {
        "inv_sqrt_psd": inv_sqrt_psd,
        "_scale_vector": _one_scaling_step,
        "pencil reducer": lambda m: HyperbolicPencil([m], np.ones(1)),
    }
    verdicts = {name: _accepts(route, m) for name, route in routes.items()}
    assert verdicts == dict.fromkeys(routes, factor > 1.0)


def test_an_empty_stack_has_an_empty_inverse_square_root():
    w, v = np.zeros((0, 3)), np.zeros((0, 3, 3), complex)
    assert _CAP._inv_sqrt(w, v, DEFAULT_TOL).shape == (0, 3, 3)
    with pytest.raises(NotPositiveDefinite):
        inv_sqrt_psd(np.zeros((0, 0)))
