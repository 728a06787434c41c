"""The minimum of D over doubly stochastic tuples: bound, samplers, searches.

The lower bound n!/n^n is a theorem; everything here either evaluates it,
samples the feasible set, or tries (and must fail) to push below it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    NonConvergence,
    NotIndecomposable,
    NumericalInconsistency,
    PreconditionViolated,
    SamplerExhausted,
    Tolerances,
    iter_seeds,
    make_rng,
    max_abs,
    min_eigenvalue,
    psd_violation,
    random_hermitian,
    random_psd,
    spawn_seeds,
)
from .discriminant import MatrixTuple, eval_polarized
from .capacity import _scale_cold

_BOUND_SLACK = 1e-7
_GATE_SEARCH = 6
_DS_RETRIES = 100  # draws random_ds_tuple tries before SamplerExhausted
_DESCENT_MAX_STEPS = 2000


@dataclass
class SearchRecord:
    """Outcome of a falsification search against the n!/n^n bound."""

    best_value: float
    best_tuple: MatrixTuple
    trials: int
    seed: int
    below_bound: bool
    trial_bests: list = field(default_factory=list)
    distance_to_jn: float | None = None


def bapat_bound(n: int) -> float:
    """n! / n^n, the proven minimum of D over doubly stochastic n-tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(math.factorial(n)) / float(n**n)


def random_ds_tuple(n: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> MatrixTuple:
    """Random doubly stochastic tuple: PSD Wishart draws, operator-scaled.

    Deterministic in (n, seed).  Draws are scaled by the cold alternating
    loop, not the Newton warm start, so a sample does not move when the
    Newton solver changes.  Decomposable or non-converging draws are
    retried with derived seeds; SamplerExhausted after ``_DS_RETRIES`` failures.
    """
    for child in itertools.islice(iter_seeds(seed), _DS_RETRIES):
        mat_seeds = spawn_seeds(child, n)
        t = MatrixTuple([random_psd(n, s) for s in mat_seeds], tol)
        try:
            return _scale_cold(t, tol).scaled
        except (NotIndecomposable, NonConvergence):
            continue
    raise SamplerExhausted(f"no doubly stochastic tuple after {_DS_RETRIES} draws")


def averaging_sweep(t: MatrixTuple, sweeps: int) -> MatrixTuple:
    """Apply f_{1,2}, f_{2,3}, .., f_{n-1,n} cyclically for ``sweeps`` rounds.

    Each f_{i,j} replaces slots i and j by their arithmetic average; the limit
    is the constant tuple of the slot average.
    """
    mats = t.matrices.copy()
    for _ in range(sweeps):
        for i in range(t.n - 1):
            mats[i] = mats[i + 1] = (mats[i] + mats[i + 1]) / 2.0
    return MatrixTuple(mats)


def lemma36_family(n: int, a1, tol: Tolerances = DEFAULT_TOL):
    """The commuting family (A1, 2/n I - A1, I/n, .., I/n) and its closed form.

    predicted = n!/n^n + (n-2)!/n^(n-2) * tr((A1 - I/n)(A1 - I/n)*); the
    direct evaluation must match within 1e-9 relative.
    Returns (tuple, predicted, actual).
    """
    if n < 2:
        raise PreconditionViolated("the family needs n >= 2")
    a1 = np.asarray(a1, dtype=np.complex128)
    eye = np.eye(n)
    a2 = 2.0 / n * eye - a1
    slack = tol.psd_tol * (1.0 + float(np.max(np.abs(a1))))
    if min_eigenvalue(a1) < -slack or min_eigenvalue(a2) < -slack:
        raise PreconditionViolated("A1 must satisfy 0 <= A1 <= 2/n I")
    if abs(float(a1.trace().real) - 1.0) > 1e-8:
        raise PreconditionViolated("A1 must have unit trace")
    mats = [a1, a2] + [eye / n] * (n - 2)
    t = MatrixTuple(mats, tol)
    dev = a1 - eye / n
    predicted = bapat_bound(n) + (
        math.factorial(n - 2) / float(n ** (n - 2))
    ) * float(np.trace(dev @ dev.conj().T).real)
    actual = eval_polarized(t)
    if abs(predicted - actual) > 1e-9 * (1.0 + abs(actual)):
        raise NumericalInconsistency(
            f"closed form {predicted:.15g} disagrees with direct value {actual:.15g}"
        )
    return t, predicted, actual


def dnp_family_value(p, tol: Tolerances = DEFAULT_TOL) -> float:
    """D(P/n, .., P/n) for positive definite P with tr P = n.

    Homogeneity makes this (n!/n^n) det(P); the identity is asserted.
    """
    p = np.asarray(p, dtype=np.complex128)
    n = p.shape[0]
    if min_eigenvalue(p) <= tol.psd_tol:
        raise PreconditionViolated("P must be positive definite")
    if abs(float(p.trace().real) - n) > 1e-8 * n:
        raise PreconditionViolated("P must have trace n")
    t = MatrixTuple([p / n] * n, tol)
    value = eval_polarized(t)
    expected = bapat_bound(n) * float(np.linalg.det(p).real)
    if abs(value - expected) > 1e-9 * abs(expected):
        raise NumericalInconsistency(
            f"D(P/n,..) = {value:.15g} but (n!/n^n) det P = {expected:.15g}"
        )
    return value


def _tangent_direction(n: int, rng) -> np.ndarray:
    """Random Hermitian tuple direction with zero traces and zero slot sum."""
    zs = np.array([random_hermitian(n, rng) for _ in range(n)])
    zs -= (np.trace(zs, axis1=1, axis2=2).real / n)[:, None, None] * np.eye(n)
    zs -= zs.sum(0) / n
    norm = math.sqrt(np.sum(np.abs(zs) ** 2, axis=(1, 2)).sum())
    if norm < 1e-12:
        return _tangent_direction(n, rng)
    return zs / norm


def _descend(t: MatrixTuple, rng, tol: Tolerances):
    """Random projected descent; strict decreases only, PSD enforced by rejection."""
    value = eval_polarized(t)
    step = 0.1
    rejections = 0
    steps = 0
    while rejections < 40 and steps < _DESCENT_MAX_STEPS:
        steps += 1
        zs = _tangent_direction(t.n, rng)
        accepted = False
        for sign in (1.0, -1.0):
            cand = t.matrices + sign * step * zs
            cand = (cand + cand.conj().transpose(0, 2, 1)) / 2.0
            if psd_violation(cand) > tol.psd_tol:
                continue
            cand_t = MatrixTuple(cand, tol)
            cand_value = eval_polarized(cand_t)
            if cand_value < value:
                t, value = cand_t, cand_value
                accepted = True
                break
        if accepted:
            rejections = 0
            step = min(step * 1.5, 0.1)
        else:
            step *= 0.5
            rejections += 1
    return t, value


def minimize_search(
    n: int, trials: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> SearchRecord:
    """Sample doubly stochastic tuples and descend; record the global best.

    ``below_bound`` turning true would falsify the n!/n^n theorem (or reveal
    a bug) and is treated as a release-blocking event by the CLI.
    """
    if n > _GATE_SEARCH:
        raise DimensionTooLarge(f"minimize_search gated at n <= {_GATE_SEARCH}")
    bound = bapat_bound(n)
    best_value = math.inf
    best_tuple = None
    trial_bests = []
    for child in spawn_seeds(seed, trials):
        t = random_ds_tuple(n, child, tol)
        rng = make_rng(child ^ 0x5EED)
        cand, value = _descend(t, rng, tol)
        trial_bests.append(value)
        if value < best_value:
            best_value = value
            best_tuple = cand
    record = SearchRecord(
        best_value=best_value,
        best_tuple=best_tuple,
        trials=trials,
        seed=seed,
        below_bound=best_value < bound - _BOUND_SLACK,
        trial_bests=trial_bests,
    )
    if best_value < bound + 1e-5 and best_tuple is not None:
        jn = np.eye(n) / n
        record.distance_to_jn = max_abs(best_tuple.matrices - jn)
    return record
