"""One doubly stochastic limit, ``core._ds_limit``, for every scaling stop and
every doubly stochastic verdict.

A scaling loop stops at max(ds_tol, 4 n eps) and a verdict accepts
violations up to max(ds_tol, 8 n eps).  So below that rounding floor every
object the package builds doubly stochastic passes its own check, while a
defect far above the floor still fails, and at the default ds_tol nothing
moves.
"""

from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from mixdisc.core import DEFAULT_TOL, PreconditionViolated, Tolerances, _ds_limit, iter_seeds, make_rng
from mixdisc.discriminant import MatrixTuple, check_doubly_stochastic
from mixdisc.extremal import dnp_family_value, lemma36_family, random_ds_tuple, random_ds_tuples
from mixdisc.hyperbolic import (
    _MIXTURES_PER_PENCIL,
    HyperbolicPencil,
    _random_ds_matrices,
    check_hd_membership,
    pencil_from_tuple,
)
from mixdisc.pascal import BlockMatrix, check_block_ds, sample_block_ds, sample_separable_ds

EPS = np.finfo(float).eps
BELOW_THE_FLOOR = [0.0, 1e-15]


def test_the_stop_is_the_old_floor_and_the_default_limits_do_not_move():
    for n in range(1, 21):
        for ds_tol in (0.0, 1e-15, 1e-8):
            tol = Tolerances(ds_tol=ds_tol)
            assert _ds_limit(n, tol, stop=True) == max(ds_tol, 4 * n * EPS)
            assert _ds_limit(n, tol) == max(ds_tol, 8 * n * EPS)
        assert _ds_limit(n, DEFAULT_TOL) == _ds_limit(n, DEFAULT_TOL, stop=True) == DEFAULT_TOL.ds_tol


@pytest.mark.parametrize("ds_tol", BELOW_THE_FLOOR)
def test_every_tuple_draw_passes_its_own_check(ds_tol):
    tol = Tolerances(ds_tol=ds_tol)
    for n in range(2, 7):
        for t in random_ds_tuples(n, range(30), tol):
            assert check_doubly_stochastic(t, tol).is_doubly_stochastic


@pytest.mark.parametrize("ds_tol", BELOW_THE_FLOOR)
def test_every_block_draw_passes_its_own_check(ds_tol):
    tol = Tolerances(ds_tol=ds_tol)
    for n in (2, 3, 4):
        for seed in range(20):
            assert check_block_ds(sample_block_ds(n, seed, tol), tol).passes
            assert check_block_ds(sample_separable_ds(n, seed, tol)[0], tol).passes


def _conjecture_mixtures(n, samples, seed):
    """The pencils and mixtures of ``conjecture_experiment(n, samples, seed)``:
    (pencil, vectors) per mixture, the vectors as rows."""
    seeds = list(islice(iter_seeds(seed), (samples - 1) // _MIXTURES_PER_PENCIL + 1))
    pencils = [pencil_from_tuple(t) for t in random_ds_tuples(n, seeds, Tolerances(ds_tol=0.0))]
    xs = _random_ds_matrices(samples, n, make_rng(seed)).swapaxes(-1, -2)
    return [(pencils[i // _MIXTURES_PER_PENCIL], xs[i]) for i in range(samples)]


@pytest.mark.parametrize("ds_tol", BELOW_THE_FLOOR)
def test_every_conjecture_mixture_passes_its_own_check(ds_tol):
    tol = Tolerances(ds_tol=ds_tol)
    for seed in range(20):
        for pencil, xs in _conjecture_mixtures(2, 200, seed):
            assert check_hd_membership(pencil, xs, tol).passes


@pytest.mark.parametrize("ds_tol", BELOW_THE_FLOOR)
def test_a_defect_of_100_n_eps_still_fails(ds_tol):
    # Far above the floor, so each verdict rejects it at every ds_tol up to
    # that defect, as it did before the floor; a loose ds_tol accepts it.
    tol, loose = Tolerances(ds_tol=ds_tol), Tolerances(ds_tol=1e-12)
    n = 3
    defect = 100 * n * EPS
    # Slot sum off by the defect, traces kept.
    mats = random_ds_tuple(n, 1, tol).matrices.copy()
    mats[0] += defect * np.diag([1.0, -1.0, 0.0])
    report = check_doubly_stochastic(MatrixTuple(mats), tol)
    assert report.sum_violation > 10 * _ds_limit(n, tol) and not report.is_doubly_stochastic
    assert check_doubly_stochastic(MatrixTuple(mats), loose).is_doubly_stochastic
    # Every block scaled by 1 + defect: sums and traces off by about it.
    rho = BlockMatrix(sample_block_ds(n, 1, tol).blocks * (1.0 + defect))
    assert not check_block_ds(rho, tol).passes and check_block_ds(rho, loose).passes
    # A mixture's vectors scaled by 1 + defect: e-traces and sum off by it.
    pencil, xs = _conjecture_mixtures(n, 1, 1)[0]
    assert not check_hd_membership(pencil, xs * (1.0 + defect), tol).passes
    assert check_hd_membership(pencil, xs * (1.0 + defect), loose).passes


def test_trace_preconditions_read_the_limit():
    # tr diag(1, 4, 2) / 7 rounds to 1 - 2^-53: within the limit at
    # ds_tol = 0, while a trace off by 100 n eps (times n for tr P = n) is
    # refused there.
    tol = replace(DEFAULT_TOL, ds_tol=0.0)
    a1 = np.diag([1.0, 4.0, 2.0]) / 7.0
    assert float(a1.astype(complex).trace().real) != 1.0
    lemma36_family(3, a1, tol)
    with pytest.raises(PreconditionViolated, match="unit trace"):
        lemma36_family(3, a1 + 300 * EPS * np.diag([1.0, 0.0, 0.0]), tol)
    assert dnp_family_value(3.0 * a1, tol) > 0.0
    with pytest.raises(PreconditionViolated, match="trace n"):
        dnp_family_value(3.0 * a1 + 300 * EPS * np.eye(3), tol)


def test_each_verdict_report_names_its_limit():
    # At ds_tol = 0 the limit is the 8 n eps floor of the object checked (a
    # membership check's n is the larger of its degree and its slot count),
    # and at the default it is ds_tol itself.
    n = 3
    # Degree 2, four slots.
    pencil = HyperbolicPencil(np.array([np.eye(2)] * 4) / 2, np.ones(4) / 2)
    xs = [np.ones(4) / 4] * 2
    for tol in (Tolerances(ds_tol=0.0), DEFAULT_TOL):
        reports = [
            (check_doubly_stochastic(random_ds_tuple(n, 1), tol), n),
            (check_block_ds(sample_block_ds(n, 1), tol), n),
            (check_hd_membership(pencil, xs, tol), 4),
        ]
        for report, dim in reports:
            assert report.limit == (tol.ds_tol if tol.ds_tol else 8 * dim * EPS)
