"""The minimum of D over doubly stochastic tuples: bound, samplers, searches.

The lower bound n!/n^n is a theorem; everything here either evaluates it,
samples the feasible set, or tries (and must fail) to push below it.

:func:`minimize_search` descends each trial by projected gradient: the
steepest descent of D within the doubly stochastic tuples, with Armijo
backtracking that also rejects non-PSD candidates, until the predicted
decrease is rounding noise (:func:`_descend`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    NonConvergence,
    NotIndecomposable,
    NumericalInconsistency,
    PreconditionViolated,
    SamplerExhausted,
    Tolerances,
    _definite,
    _eigh,
    _gate,
    _gram,
    _psd,
    iter_seeds,
    max_abs,
    spawn_seeds,
)
from .discriminant import MatrixTuple, _gradient_raw, _rounding_scale, eval_polarized
from .capacity import _scalings

_BOUND_SLACK = 1e-7
_GATE_SEARCH = 6
_DS_RETRIES = 100  # draws random_ds_tuples tries per seed before SamplerExhausted
# Trial starts minimize_search draws per random_ds_tuples call; bounds the
# starts it holds at once.
_START_BLOCK = 1000
_DESCENT_MAX_STEPS = 2000
# Sufficient-decrease fraction of the Armijo condition in _descend.
_ARMIJO = 1e-4


@dataclass
class SearchRecord:
    """Outcome of a falsification search against the n!/n^n bound.

    ``trial_bests`` holds each trial's final D in trial order and
    ``stop_reasons`` why its descent stopped.
    """

    best_value: float
    best_tuple: MatrixTuple
    trials: int
    seed: int
    below_bound: bool
    trial_bests: list = field(default_factory=list)
    distance_to_jn: float | None = None
    # Why each trial's descent stopped: "roundoff" (the predicted decrease
    # fell to the rounding scale of D) or "max_steps" (_DESCENT_MAX_STEPS
    # candidates).
    stop_reasons: list = field(default_factory=list)


def bapat_bound(n: int) -> float:
    """n! / n^n, the proven minimum of D over doubly stochastic n-tuples,
    correctly rounded (Python's integer true division)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.factorial(n) / n**n


def random_ds_tuple(n: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> MatrixTuple:
    """Random doubly stochastic tuple: PSD Wishart draws, operator-scaled.

    Deterministic in (n, seed): the one-seed call of :func:`random_ds_tuples`.
    """
    return random_ds_tuples(n, [seed], tol)[0]


def random_ds_tuples(n: int, seeds, tol: Tolerances = DEFAULT_TOL) -> list[MatrixTuple]:
    """One random doubly stochastic n-tuple per seed, as a list.

    A seed's k-th draw is the tuple of the Wishart slots ``random_psd`` draws
    from the children of the k-th seed of ``iter_seeds(seed)``.  Draws are
    scaled by ``scale_to_doubly_stochastic`` (the ``capacity._scalings`` of
    each round's draws, one loop over their stack), from s = 1 with no
    Newton solve, so a sample does not move when the Newton solver changes;
    the sample is s'_i L A_i L with L Hermitian.  A seed whose draw is
    decomposable or does not converge draws again in the next round, from
    its next child; SamplerExhausted after ``_DS_RETRIES`` failures of one
    seed.  Entry j is ``random_ds_tuple(n, seeds[j])`` bit for bit.
    """
    children = [iter_seeds(seed) for seed in seeds]
    out = [None] * len(children)
    todo = list(range(len(children)))
    for _ in range(_DS_RETRIES):
        # The Gram products are validated and symmetrized once per tuple, at
        # the default Hermiticity tolerance: the slots of ``random_psd`` bit
        # for bit, whatever ``tol`` asks of inputs.
        draws = [
            MatrixTuple([_gram(n, s) for s in spawn_seeds(next(children[j]), n)]) for j in todo
        ]
        retry = []
        for j, res in zip(todo, _scalings(draws, tol)):
            if isinstance(res, (NotIndecomposable, NonConvergence)):
                retry.append(j)
            elif isinstance(res, Exception):
                raise res
            else:
                out[j] = res.scaled
        todo = retry
        if not todo:
            return out
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
    pair = np.array([a1, 2.0 / n * eye - a1])
    if not _psd(_eigh(pair, vectors=False), np.abs(pair).max(axis=(1, 2)), tol).all():
        raise PreconditionViolated("A1 must satisfy 0 <= A1 <= 2/n I")
    if abs(float(a1.trace().real) - 1.0) > tol.ds_tol:
        raise PreconditionViolated("A1 must have unit trace")
    t = MatrixTuple([*pair] + [eye / n] * (n - 2), tol)
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
    if not _definite(_eigh(p, vectors=False), tol):
        raise PreconditionViolated("P must be positive definite")
    if abs(float(p.trace().real) - n) > tol.ds_tol * n:
        raise PreconditionViolated("P must have trace n")
    t = MatrixTuple([p / n] * n, tol)
    value = eval_polarized(t)
    expected = bapat_bound(n) * float(np.linalg.det(p).real)
    if abs(value - expected) > 1e-9 * abs(expected):
        raise NumericalInconsistency(
            f"D(P/n,..) = {value:.15g} but (n!/n^n) det P = {expected:.15g}"
        )
    return value


def _direction(q: np.ndarray) -> np.ndarray:
    """-P(Q): the steepest descent of D on the doubly stochastic tuples.

    P projects a tuple of Hermitian slots onto the tangent space (zero traces,
    zero slot sum): it subtracts tr(Q_i)/n I from each slot, then the slot
    mean.  Both steps add conjugate pairs to conjugate pairs, so the result is
    exactly Hermitian when Q is.
    """
    n = len(q)
    d = q - (np.trace(q, axis1=1, axis2=2).real / n)[:, None, None] * np.eye(n)
    d -= d.sum(0) / n
    return -d


def _descend(mats: np.ndarray, tol: Tolerances):
    """Projected-gradient descent of one (n, n, n) doubly stochastic tuple.

    From x with gradient Q (:func:`_gradient_raw`) the candidate is
    x + s d, d = :func:`_direction` (Q), exactly Hermitian as x and d are.
    It is taken when it passes ``core._psd`` and meets the Armijo
    condition D(x + s d) <= D(x) - _ARMIJO s ||d||^2, and the step s then
    doubles; otherwise s halves.  The descent stops with "roundoff" once the
    predicted decrease s ||d||^2 is within 8 n u times the kernel's sum of
    |terms| at x (u the unit round-off), the rounding scale of D, where no
    decrease can be told from rounding; or with "max_steps" after
    ``_DESCENT_MAX_STEPS`` candidates.  Returns the final tuple, its D and
    the stop reason.
    """
    n = len(mats)
    floor = _rounding_scale(n)
    q, value, magnitude = _gradient_raw(mats)
    x, step, reason = mats, 1.0, "max_steps"
    for _ in range(_DESCENT_MAX_STEPS):
        d = _direction(q)
        decrease = step * float(np.vdot(d, d).real)
        if decrease <= floor * magnitude:
            reason = "roundoff"
            break
        cand = x + step * d
        if _psd(_eigh(cand, vectors=False), max_abs(cand), tol).all():
            cand_q, cand_value, cand_magnitude = _gradient_raw(cand)
            if cand_value <= value - _ARMIJO * decrease:
                x, q, value, magnitude = cand, cand_q, cand_value, cand_magnitude
                step *= 2.0
                continue
        step /= 2.0
    return x, value, reason


def minimize_search(
    n: int, trials: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> SearchRecord:
    """Sample doubly stochastic tuples and descend; record the global best.

    Trial k starts from ``random_ds_tuple(n, child_k)``, child_k the k-th
    seed of ``iter_seeds(seed)``; the starts are drawn by one
    ``random_ds_tuples`` call per ``_START_BLOCK`` trials.  Each trial
    descends alone by projected gradient (:func:`_descend`); no target is
    taken from n!/n^n, so a trial stops on rounding noise or at the step cap
    wherever its minimum lies.
    ``below_bound`` turning true would falsify the n!/n^n theorem (or reveal
    a bug) and is treated as a release-blocking event by the CLI.  n = 1 is a
    precondition error: the only doubly stochastic 1-tuple is (1), so there is
    no direction to descend along.
    """
    if n < 2:
        raise PreconditionViolated("the search needs n >= 2; the only DS 1-tuple is (1)")
    _gate(n, _GATE_SEARCH, "minimize_search")
    bound = bapat_bound(n)
    best_value = math.inf
    best_mats = None
    trial_bests, stop_reasons = [], []
    children = iter_seeds(seed)
    for first in range(0, trials, _START_BLOCK):
        block = list(itertools.islice(children, min(_START_BLOCK, trials - first)))
        for start in random_ds_tuples(n, block, tol):
            mats, value, reason = _descend(start.matrices, tol)
            trial_bests.append(value)
            stop_reasons.append(reason)
            if value < best_value:
                best_value, best_mats = value, mats
    best_tuple = None if best_mats is None else MatrixTuple(best_mats, tol)
    record = SearchRecord(
        best_value=best_value,
        best_tuple=best_tuple,
        trials=trials,
        seed=seed,
        below_bound=best_value < bound - _BOUND_SLACK,
        trial_bests=trial_bests,
        stop_reasons=stop_reasons,
    )
    if best_value < bound + 1e-5 and best_tuple is not None:
        jn = np.eye(n) / n
        record.distance_to_jn = max_abs(best_tuple.matrices - jn)
    return record
