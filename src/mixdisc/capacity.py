"""Capacity of a matrix tuple and operator scaling to doubly stochastic form.

Capacity is the infimum of det(sum x_i A_i) over positive x with product 1.
It is computed two independent ways: projected gradient descent on the convex
objective log det(sum e^{y_i} A_i) restricted to mean-zero y, and through the
operator-scaling fixed point (the two must agree, which the tests enforce).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    NonConvergence,
    NotIndecomposable,
    PreconditionViolated,
    SingularPencil,
    Tolerances,
    inv_sqrt_psd,
)
from .discriminant import (
    MatrixTuple,
    _require_psd,
    _trace_and_sum_violations,
    eval_polarized,
)
from .structure import is_indecomposable

_LOG_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class CapacityResult:
    value: float
    minimizer_x: np.ndarray
    gradient_norm: float
    iterations: int


@dataclass(frozen=True)
class ScalingResult:
    scaled: MatrixTuple
    alpha: np.ndarray
    transform_X: np.ndarray
    trace_scalars: np.ndarray
    ds_defect: float
    iterations: int
    converged: bool


def _objective(mats, y):
    w = np.exp(y)
    m = (w[:, None, None] * mats).sum(0)
    sign, logdet = np.linalg.slogdet(m)
    if sign.real <= 0.0 or logdet < _LOG_FLOOR:
        raise SingularPencil(
            "det(sum e^{y_i} A_i) collapsed; the tuple violates the weak rank condition"
        )
    return float(logdet), m, w


def capacity(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = 50000) -> CapacityResult:
    """Cap(t) by projected gradient descent with Armijo backtracking.

    Minimizes f(y) = log det(sum e^{y_i} A_i) over sum y_i = 0; gradient
    component i is e^{y_i} tr(M^{-1} A_i).  Stops when the projected gradient
    norm drops below opt_tol.
    """
    _require_psd(t, tol)
    n = t.n
    mats = t.matrices
    y = np.zeros(n)
    f, m, w = _objective(mats, y)
    step = 1.0
    it = 0
    gnorm = math.inf
    stalls = 0
    while it < max_iter:
        grad = w * np.trace(np.linalg.solve(m, mats), axis1=1, axis2=2).real
        grad -= grad.mean()
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol.opt_tol:
            break
        # Armijo backtracking along -grad (c = 1e-4, shrink 0.5).
        s = min(step * 2.0, 1.0e6)
        accepted = False
        while s > 1e-18:
            y_new = y - s * grad
            y_new -= y_new.mean()
            f_new, m_new, w_new = _objective(mats, y_new)
            if f_new <= f - 1e-4 * s * gnorm * gnorm:
                drop = f - f_new
                y, f, m, w = y_new, f_new, m_new, w_new
                step = s
                accepted = True
                stalls = stalls + 1 if drop <= 1e-14 * (1.0 + abs(f)) else 0
                break
            s *= 0.5
        it += 1
        if not accepted or stalls >= 10:
            # Progress is below round-off; the iterate is as good as it gets.
            break
    result = CapacityResult(
        value=math.exp(f),
        minimizer_x=np.exp(y),
        gradient_norm=gnorm,
        iterations=it,
    )
    if gnorm >= tol.opt_tol and it >= max_iter:
        raise NonConvergence(
            f"capacity descent hit max_iter = {max_iter} with gradient norm {gnorm:.3e}",
            result=result,
        )
    return result


def scale_to_doubly_stochastic(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = 10000
) -> ScalingResult:
    """Alternating normalization to a doubly stochastic tuple.

    Step (a) conjugates by (sum A_i)^(-1/2) to fix the identity-sum condition;
    step (b) rescales each slot to unit trace.  transform_X accumulates the
    congruence factors and trace_scalars the per-slot scalars, so the scaled
    tuple always reconstructs as s_i * X @ A_i @ X^H.
    """
    _require_psd(t, tol)
    indec, witness = is_indecomposable(t, tol)
    if not indec:
        raise NotIndecomposable(f"tuple decomposes; witness subset {witness}")
    n = t.n
    mats = t.matrices
    x = np.eye(n, dtype=np.complex128)
    scalars = np.ones(n)
    defect = sum(_trace_and_sum_violations(mats))
    it = 0
    while defect > tol.ds_tol and it < max_iter:
        l = inv_sqrt_psd(mats.sum(0), tol)
        mats = l @ mats @ l
        mats = (mats + mats.conj().transpose(0, 2, 1)) / 2.0
        x = l @ x
        traces = np.trace(mats, axis1=1, axis2=2).real
        if np.any(traces <= 0.0):
            raise SingularPencil("a slot lost its trace during scaling")
        mats = mats / traces[:, None, None]
        scalars /= traces
        it += 1
        defect = sum(_trace_and_sum_violations(mats))
    converged = defect <= tol.ds_tol
    log_s = np.log(scalars)
    alpha = np.exp(log_s - log_s.mean())
    result = ScalingResult(
        scaled=MatrixTuple(mats),
        alpha=alpha,
        transform_X=x,
        trace_scalars=scalars,
        ds_defect=defect,
        iterations=it,
        converged=converged,
    )
    if not converged:
        raise NonConvergence(
            f"scaling stalled at ds_defect = {defect:.3e} after {it} iterations",
            result=result,
        )
    return result


def capacity_via_scaling(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = 10000
) -> float:
    """Cap(t) from the scaling fixed point: |det X|^(-2) / prod(trace_scalars).

    Exact at the fixed point because Cap(scaled) = |det X|^2 prod(s) Cap(t)
    for any number of iterations, and Cap of a doubly stochastic tuple is 1.
    """
    res = scale_to_doubly_stochastic(t, tol, max_iter)
    sign, logdet = np.linalg.slogdet(res.transform_X)
    log_cap = -2.0 * float(logdet) - float(np.sum(np.log(res.trace_scalars)))
    return math.exp(log_cap)


def capacity_bound_report(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, bool]:
    """Cap(t) / D(t) and whether it sits inside [1, n^n / n!] with 1e-6 slack."""
    d = eval_polarized(t)
    if d <= 0.0:
        raise PreconditionViolated(f"D(t) = {d:.3e} is not positive")
    cap = capacity(t, tol).value
    ratio = cap / d
    upper = float(n_pow_n_over_factorial(t.n))
    within = (1.0 - 1e-6) <= ratio <= upper + 1e-6
    return ratio, within


def n_pow_n_over_factorial(n: int) -> float:
    return float(n**n) / float(math.factorial(n))
