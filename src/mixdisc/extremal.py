"""The minimum of D over doubly stochastic tuples: bound, samplers, searches.

The lower bound n!/n^n is a theorem; everything here either evaluates it,
samples the feasible set, or tries (and must fail) to push below it.

:func:`minimize_search` descends its trials as stacks of up to
``_DESCENT_CHUNK`` tuples: a step tests the +- candidates of every live trial
for PSD with one eigensolve and evaluates them with one call of the centered
kernel, whose values pass one residue gate.  Each trial keeps its own Philox
stream, so every result is the one a trial descended alone gives, bit for
bit.
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
    random_psd,
    spawn_seeds,
)
from .discriminant import MatrixTuple, _as_real, _polarized_raw, eval_polarized
from .capacity import _scale_cold

_BOUND_SLACK = 1e-7
_GATE_SEARCH = 6
_DS_RETRIES = 100  # draws random_ds_tuple tries before SamplerExhausted
_DESCENT_MAX_STEPS = 2000
_DESCENT_REJECTIONS = 40
# Trials descended together as one stack.  The stack, its candidates and its
# block of directions (3.5 MB at n = 6) grow with the width, so a fixed width
# keeps memory flat in the trial count.  Wider stacks spread numpy's per-call
# cost further: 64 trials at n = 3 took 9.9 s at width 1, 3.1 s at 8, 1.9 s
# at 32 and 1.6 s at 64, and 128 trials were no faster at 128.
_DESCENT_CHUNK = 64
# Directions drawn ahead per trial, so that their arithmetic runs once per
# block of steps: one n = 3 trial took 184 ms drawing one step ahead and
# 120 to 140 ms drawing 4 to 64 ahead.
_DIRECTION_BLOCK = 16


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
    # Why each trial's descent stopped: "rejections" (_DESCENT_REJECTIONS in
    # a row) or "max_steps" (_DESCENT_MAX_STEPS steps).
    stop_reasons: list = field(default_factory=list)


def bapat_bound(n: int) -> float:
    """n! / n^n, the proven minimum of D over doubly stochastic n-tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(math.factorial(n)) / float(n**n)


def random_ds_tuple(n: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> MatrixTuple:
    """Random doubly stochastic tuple: PSD Wishart draws, operator-scaled.

    Deterministic in (n, seed).  Draws are scaled cold, from s = 1, by the
    route of the ``capacity_via_scaling`` oracle (``capacity._scale_cold``),
    not the Newton warm start, so a sample does not move when the Newton
    solver changes; the sample is s'_i L A_i L with L Hermitian.  Decomposable
    or non-converging draws are retried with derived seeds; SamplerExhausted
    after ``_DS_RETRIES`` failures.
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


def _tangent_directions(n: int, rngs, count: int) -> np.ndarray:
    """The next ``count`` random descent directions of each generator, as a
    (k, count, n, n, n) stack of exactly Hermitian tuples with zero traces,
    zero slot sum and unit Frobenius norm.

    A direction takes n Hermitian slots from one ``standard_normal((n, 2, n,
    n))`` block, element for element the stream of n ``random_hermitian``
    calls, and ``count`` directions are one block of ``count`` times that
    size.  A direction of norm below 1e-12 is dropped and the generator
    draws one more, so the directions are those of one draw at a time with a
    redraw after each tiny one.
    """
    g = np.array([rng.standard_normal((count, n, 2, n, n)) for rng in rngs])
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2.0)
    zs = (z + z.conj().swapaxes(-1, -2)) / 2.0
    zs -= (np.trace(zs, axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)
    zs -= zs.sum(-3, keepdims=True) / n
    norm = np.sqrt(np.sum(np.abs(zs) ** 2, axis=(-2, -1)).sum(-1))
    tiny = norm < 1e-12
    norm[tiny] = 1.0
    zs /= norm[..., None, None, None]
    for k in np.flatnonzero(tiny.any(axis=1)):
        more = _tangent_directions(n, [rngs[k]], int(tiny[k].sum()))[0]
        zs[k] = np.concatenate((zs[k][~tiny[k]], more))
    return zs


def _descend(mats: np.ndarray, rngs, tol: Tolerances):
    """Random projected descent of a (T, n, n, n) stack of tuples, trial k
    driven by ``rngs[k]``; strict decreases only, PSD enforced by rejection.

    The trials step in lockstep, each with its own step length, rejection
    count and ``_DESCENT_MAX_STEPS`` cap; a trial leaves the working stack
    when it stops.  Directions are drawn ``_DIRECTION_BLOCK`` steps ahead.  A
    step forms the (T, 2) stack of candidates x +- step * z, exactly
    Hermitian as x and z are; one ``eigvalsh`` tests it for PSD and one gated
    kernel call evaluates it.  A trial moves to the first sign, in the order
    +, -, that passes and strictly decreases D.
    Returns the final stack, its (T,) values, each bit for bit what one
    trial descended alone gives, and each trial's stop reason: "rejections"
    after ``_DESCENT_REJECTIONS`` rejected steps in a row (also when that
    step is the last one allowed), "max_steps" at the step cap.
    """
    mats = mats.copy()
    n = mats.shape[1]
    values = _as_real(_polarized_raw(mats))
    reasons = [""] * len(mats)
    # The working state of the trials still descending; ``live`` holds their
    # rows in ``mats``.
    live = np.arange(len(mats))
    x, value, rngs = mats.copy(), values.copy(), list(rngs)
    step = np.full(len(live), 0.1)
    rejections = np.zeros(len(live), dtype=int)
    signs = np.array([1.0, -1.0])
    steps = 0  # the same for every live trial
    while live.size:
        if steps % _DIRECTION_BLOCK == 0:
            directions = _tangent_directions(n, rngs, _DIRECTION_BLOCK)
        zs = directions[:, steps % _DIRECTION_BLOCK]
        steps += 1
        cand = x[:, None] + (signs * step[:, None])[..., None, None, None] * zs[:, None]
        psd = -np.linalg.eigvalsh(cand).min(axis=(-2, -1)) <= tol.psd_tol
        d = _as_real(_polarized_raw(cand.reshape(-1, n, n, n))).reshape(psd.shape)
        better = psd & (d < value[:, None])
        plus = better[:, 0]
        moved = plus | better[:, 1]
        sign = np.where(plus, 0, 1)  # the candidate a moving trial takes
        trial = np.arange(len(live))
        x[moved] = cand[trial, sign][moved]
        value = np.where(moved, d[trial, sign], value)
        rejections = np.where(moved, 0, rejections + 1)
        step = np.where(moved, np.minimum(step * 1.5, 0.1), step * 0.5)
        rejected = rejections >= _DESCENT_REJECTIONS
        stop = rejected | (steps >= _DESCENT_MAX_STEPS)
        if stop.any():
            mats[live[stop]], values[live[stop]] = x[stop], value[stop]
            for k, r in zip(live[stop].tolist(), rejected[stop].tolist()):
                reasons[k] = "rejections" if r else "max_steps"
            keep = ~stop
            live, x, value, step, rejections, directions = (
                a[keep] for a in (live, x, value, step, rejections, directions)
            )
            rngs = [rng for rng, k in zip(rngs, keep) if k]
    return mats, values, reasons


def minimize_search(
    n: int, trials: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> SearchRecord:
    """Sample doubly stochastic tuples and descend; record the global best.

    Trial k starts from ``random_ds_tuple(n, child_k)`` and draws its
    directions from ``make_rng(child_k ^ 0x5EED)``, child_k the k-th seed of
    ``iter_seeds(seed)``; the trials descend in stacks of ``_DESCENT_CHUNK``
    (see :func:`_descend`), which changes no result.  ``below_bound`` turning true would falsify the n!/n^n theorem (or reveal
    a bug) and is treated as a release-blocking event by the CLI.  n = 1 is a
    precondition error: the only doubly stochastic 1-tuple is (1), so there is
    no direction to descend along.
    """
    if n < 2:
        raise PreconditionViolated("the search needs n >= 2; the only DS 1-tuple is (1)")
    if n > _GATE_SEARCH:
        raise DimensionTooLarge(f"minimize_search gated at n <= {_GATE_SEARCH}")
    bound = bapat_bound(n)
    best_value = math.inf
    best_mats = None
    trial_bests, stop_reasons = [], []
    seeds = itertools.islice(iter_seeds(seed), trials)
    while chunk := list(itertools.islice(seeds, _DESCENT_CHUNK)):
        start = np.array([random_ds_tuple(n, child, tol).matrices for child in chunk])
        rngs = [make_rng(child ^ 0x5EED) for child in chunk]
        mats, values, reasons = _descend(start, rngs, tol)
        stop_reasons += reasons
        for m, value in zip(mats, values.tolist()):
            trial_bests.append(value)
            if value < best_value:
                best_value = value
                best_mats = m
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
