"""Capacity of a matrix tuple and operator scaling to doubly stochastic form.

Capacity is the infimum of det(sum x_i A_i) over positive x with product 1.
It is computed two independent ways, which the tests hold to agreement:

* ``capacity`` runs damped Newton on the convex objective
  f(y) = log det(sum e^{y_i} A_i) restricted to mean-zero y (the second-order
  operator scaling of Allen-Zhu, Garg, Li, Oliveira and Wigderson,
  arXiv:1804.01076).  With M = sum w_i A_i, w = e^y and q_i = w_i M^{-1} A_i
  the gradient is g_i = tr q_i and the Hessian H_ij = delta_ij g_i -
  tr(q_i q_j); H 1 = 0, so the step solves (H + 1 1^T / n) d = -(g - mean g)
  in the eigenbasis.  Eigendirections without curvature to working precision
  are dropped where the gradient along them is below ``opt_tol`` (f is flat
  there, as on decomposable tuples) and followed where it is not (f falls
  linearly there, as on a pencil collapsing toward Cap = 0).  Armijo
  backtracking runs on the Newton decrement lambda^2 = -grad f . d, and a
  trial point whose computed pencil is singular counts as a rejected step.
* ``capacity_via_scaling`` reads Cap off cold Gurvits operator scaling
  started from the tuple itself (``_scale_cold``, s = 1), which shares
  nothing with the Newton solver.  It is the independent oracle:
  Cap = |det X|^(-2) / prod s' at the end of the scaling loop below.

Every doubly stochastic scaling runs one loop, ``_scale_vector``, whose
state is the scaling vector s, from a start the caller passes.  One
alternating step from B_i = s_i A_i gives L = (sum s_i A_i)^(-1/2) and
s'_i = s_i / tr(L B_i L), and the loop stops once s'_i L A_i L is within
``ds_tol`` of doubly stochastic.  The result carries X = L of that last step,
which is Hermitian, and trace_scalars = s', so the scaled tuple is
s'_i X A_i X^*.  The next s is the Anderson extrapolation of log s over the
last ``_ANDERSON_DEPTH`` steps (Walker and Ni 2011), taken only where the
capacity potential Phi(s) = log det(sum s_i A_i) - sum log s_i is no larger
than at s'; otherwise s' is taken.  A plain step never raises Phi (AM-GM on
both terms), so neither does the guarded one.  Plain alternating scaling
converges only linearly, at a rate that tends to 1 near decomposable or
boundary tuples, where it takes thousands of steps from s = 1; accelerated,
rank-one + 1e-6 I slots take 10 to 25 steps and Wishart tuples about 7.

There are two starts.  ``_scale_cold`` starts from s = 1; both the oracle and
``extremal.random_ds_tuple`` take this route.  ``scale_to_doubly_stochastic``
starts from the Newton minimizer x: with M = sum x_i A_i and L = M^(-1/2),
the tuple x_i L A_i L is doubly stochastic at the optimum (Gurvits 2004),
because sum_i x_i L A_i L = I and tr(x_i L A_i L) = g_i = 1.  The first step
produces it and further steps polish it; the median is one step, and
rank-one + 1e-6 I slots took at most 6 on 400 seeded draws.

A step costs one Hermitian eigensolve of the slot sum (``inv_sqrt_psd``),
the congruence of the stack, one trace for the normalization and one slot
sum plus one trace for the defect test; from the second step on it adds the
extrapolation and one batched eigenvalue solve for the two potentials.  The
precondition of every scaling call is one PSD check and one subset scan
(``structure._first_subset``: one batched eigensolve per cardinality up to
n = 10, more chunks above).

``CapacityResult.stop_reason`` says why the Newton loop stopped:

* ``"gradient"``: the projected gradient norm fell below ``opt_tol``;
* ``"roundoff"``: lambda^2 <= 256 u (1 + |f|), u the unit round-off.  Since
  lambda^2 / 2 estimates f - min f, Cap is then accurate to about
  128 u (1 + |f|) relative, i.e. to working precision; this is how Newton
  stops when round-off keeps the gradient above ``opt_tol``.  It is also the
  stop when backtracking finds no decrease while lambda^2 is within the
  rounding noise of f, estimated as n u cond(M) (1 + |f|) (rounding M by
  u |M| moves log det M by up to n u cond(M)): on an ill-conditioned M no
  line search can see a decrease that small, and Cap is as accurate as f;
* ``"stalled"``: backtracking found no decrease while lambda^2 was still above
  that noise; the best iterate is returned with ``converged=False``;
* ``"max_iter"``: the iteration cap was hit; ``NonConvergence`` is raised and
  carries the result.

On mean-zero y, det(sum e^{y_i} A_i) >= Cap.  So ``SingularPencil`` is raised,
as a verdict of Cap = 0 (the weak rank condition fails), when that det falls
below 1e-300 at any point the solver evaluates, and when a ``"roundoff"`` or
``"stalled"`` stop lands on a pencil that is singular to working precision.

``ScalingResult.stop_reason`` is ``"ds_tol"`` on every returned result; the
result that ``NonConvergence`` carries when scaling hits ``max_iter`` has
``"max_iter"``.
"""

from __future__ import annotations

import math
import sys
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
# Newton converges in 3 steps in the median and at most 12 on seeded Wishart,
# near-boundary (rank one + 1e-6 I) and 1e+-6 slot-scaled tuples with n <= 6;
# the cap bounds the damped phase on worse input.
CAPACITY_MAX_ITER = 100
# Scaling steps: the accelerated loop takes tens near the boundary; the cap
# bounds a tuple so close to a decomposable one that it runs long.
SCALING_MAX_ITER = 10000
# Anderson depth m of the capacity oracle: its extrapolation combines the
# last m + 1 iterates (m differences).
_ANDERSON_DEPTH = 3
_ARMIJO = 1e-4
# Below this lambda^2 the predicted decrease lambda^2 / 2 is within ~128 ulps
# of f, about the rounding error of log det itself, so no line search can
# resolve further progress and Cap is already that accurate.
_EPS = sys.float_info.epsilon
_ROUNDOFF = 256.0 * _EPS


@dataclass(frozen=True)
class CapacityResult:
    value: float
    minimizer_x: np.ndarray
    gradient_norm: float
    iterations: int
    converged: bool
    stop_reason: str


@dataclass(frozen=True)
class ScalingResult:
    scaled: MatrixTuple
    alpha: np.ndarray
    transform_X: np.ndarray
    trace_scalars: np.ndarray
    ds_defect: float
    iterations: int
    converged: bool
    stop_reason: str


def _objective(mats, y):
    """f(y) = log det(sum e^{y_i} A_i), with M and w scaled by e^{-max y}.

    The shift keeps e^y finite for any y; w_i M^{-1} A_i is unchanged by it.
    Returns None where the computed M is singular, which is a rounding verdict
    on an overlong step and says nothing about Cap.  Raises ``SingularPencil``
    where the computed det(M) is positive but f < log(1e-300): mean-zero y has
    prod e^{y_i} = 1, so det(M) >= Cap there, and Cap < 1e-300.
    """
    top = float(y.max())
    w = np.exp(y - top)
    m = (w[:, None, None] * mats).sum(0)
    sign, logdet = np.linalg.slogdet(m)
    if not sign.real > 0.0:
        return None
    f = len(y) * top + float(logdet)
    if f < _LOG_FLOOR:
        raise SingularPencil(
            "det(sum e^{y_i} A_i) < 1e-300 at prod e^{y_i} = 1; "
            "the tuple violates the weak rank condition"
        )
    return f, m, w


def _newton_direction(q, g, r, opt_tol):
    """Newton direction d (mean zero) and decrement lambda^2 = -r . d.

    q is the stack w_i M^{-1} A_i, so H = diag(g) - [tr(q_i q_j)] stays finite
    however far M is from the identity.  d comes from one Hermitian
    eigendecomposition of H + 1 1^T / n.  An eigendirection whose curvature is
    below working precision is left alone where the gradient along it is below
    ``opt_tol`` too (f is flat there, as on decomposable tuples), and followed
    with its curvature raised to that precision where it is not (f falls
    linearly there: the pencil is collapsing toward Cap = 0).  H stays in the
    complex dtype of the q stack (its imaginary part is rounding error), so
    this is the Hermitian eigensolver the package already loads; a real or
    least-squares LAPACK routine would add to peak memory.
    """
    n = len(g)
    h = np.diag(g) - np.einsum("iab,jba->ij", q, q)
    lam, v = np.linalg.eigh(h + 1.0 / n)
    c = v.conj().T @ r
    cut = n * _EPS * lam[-1]
    use = (lam > cut) | (np.abs(c) >= opt_tol)
    d = -(v[:, use] @ (c[use] / np.maximum(lam[use], cut))).real
    d -= d.mean()
    return d, -float(r @ d)


def _backtrack(mats, y, f, d, lam2):
    """Armijo backtracking from the full Newton step.

    Halves the step until f decreases enough; a trial point whose computed
    pencil is singular counts as a rejected step.  Returns None once the step
    is below the rounding of y, s ||d|| <= u (1 + ||y||), which bounds the
    halvings by about 53 + log2(||d|| / (1 + ||y||)).
    """
    tiny = _EPS * (1.0 + float(np.linalg.norm(y)))
    s = 1.0
    dnorm = float(np.linalg.norm(d))
    while s * dnorm > tiny:
        y_new = y + s * d
        trial = _objective(mats, y_new)
        if trial is not None and trial[0] < f - _ARMIJO * s * lam2:
            return (y_new, *trial)
        s *= 0.5
    return None


def _newton(mats, tol, max_iter) -> CapacityResult:
    """The damped-Newton loop of ``capacity`` on a PSD stack, without its
    precondition check; a ``"max_iter"`` result is returned, not raised."""
    n = len(mats)
    y = np.zeros(n)
    start = _objective(mats, y)
    if start is None:
        raise SingularPencil(
            "sum A_i is singular; the tuple violates the weak rank condition"
        )
    f, m, w = start
    it = 0
    while True:
        q = np.linalg.solve(m, w[:, None, None] * mats)
        g = np.trace(q, axis1=1, axis2=2).real
        r = g - g.mean()
        gnorm = float(np.linalg.norm(r))
        if gnorm < tol.opt_tol:
            stop = "gradient"
            break
        d, lam2 = _newton_direction(q, g, r, tol.opt_tol)
        if lam2 <= _ROUNDOFF * (1.0 + abs(f)):
            stop = "roundoff"
            break
        if it >= max_iter:
            stop = "max_iter"
            break
        step = _backtrack(mats, y, f, d, lam2)
        if step is None:
            stop = "stalled"
            break
        y, f, m, w = step
        it += 1
    if stop in ("roundoff", "stalled"):
        # M is scaled by e^{-max y}, which leaves its condition number alone.
        ev = np.linalg.eigvalsh(m)
        if ev[0] <= n * _EPS * ev[-1]:
            raise SingularPencil(
                "sum e^{y_i} A_i is numerically singular at prod e^{y_i} = 1, "
                "where its det bounds Cap; the tuple violates the weak rank "
                "condition to working precision"
            )
        if stop == "stalled" and lam2 <= n * _EPS * (ev[-1] / ev[0]) * (1.0 + abs(f)):
            stop = "roundoff"
    return CapacityResult(
        value=math.exp(f),
        minimizer_x=np.exp(y),
        gradient_norm=gnorm,
        iterations=it,
        converged=stop in ("gradient", "roundoff"),
        stop_reason=stop,
    )


def capacity(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = CAPACITY_MAX_ITER
) -> CapacityResult:
    """Cap(t) by damped Newton on log det(sum e^{y_i} A_i) over sum y_i = 0.

    See the module docstring for the step and the stop reasons.  Raises
    ``NonConvergence`` (carrying the result) when ``max_iter`` Newton steps
    leave the iterate short of every stopping test, and ``SingularPencil``
    when Cap is zero to working precision.
    """
    _require_psd(t, tol)
    result = _newton(t.matrices, tol, max_iter)
    if result.stop_reason == "max_iter":
        raise NonConvergence(
            f"capacity Newton hit max_iter = {max_iter} with gradient norm "
            f"{result.gradient_norm:.3e}",
            result=result,
        )
    return result


def _require_scalable(t: MatrixTuple, tol: Tolerances) -> None:
    """PSD (checked by the subset scan) and indecomposable, or raise."""
    indec, witness = is_indecomposable(t, tol)
    if not indec:
        raise NotIndecomposable(f"tuple decomposes; witness subset {witness}")


def scale_to_doubly_stochastic(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = SCALING_MAX_ITER
) -> ScalingResult:
    """Doubly stochastic scaling, warm-started from the Newton minimizer.

    With x the minimizer of ``capacity`` (its best iterate also on a
    ``"stalled"`` or ``"max_iter"`` stop), the first step of ``_scale_vector``
    from s = x is the closed-form scaling x_i L A_i L, L = (sum x_i A_i)^(-1/2);
    further steps polish it until the defect is within ``ds_tol``.
    ``max_iter`` and ``iterations`` count these steps.  Raises
    ``NotIndecomposable`` on a decomposable tuple and ``NonConvergence``
    (carrying a "max_iter" result) when polishing runs out of steps.
    """
    _require_scalable(t, tol)
    x = _newton(t.matrices, tol, CAPACITY_MAX_ITER).minimizer_x
    return _scale_vector(t, x, tol, max_iter)


def _scale_cold(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = SCALING_MAX_ITER
) -> ScalingResult:
    """Gurvits scaling from the tuple itself (s = 1), the route that shares
    nothing with the Newton solver."""
    _require_scalable(t, tol)
    return _scale_vector(t, np.ones(t.n), tol, max_iter)


def _potential(totals, s, tol: Tolerances) -> np.ndarray:
    """Phi(s) = log det(sum s_i A_i) - sum log s_i for each row of the (k, n)
    array s, given the (k, n, n) slot sums.

    Cap is the infimum of exp(Phi).  Phi is +inf where a sum fails the
    positive-definiteness test of ``inv_sqrt_psd``, so no step is taken to a
    point that the next alternating step could not start from.
    """
    w = np.linalg.eigvalsh(totals)
    ok = (w[:, -1] > 0.0) & (w[:, 0] > tol.psd_tol * w[:, -1])
    logdet = np.log(np.where(ok[:, None], w, 1.0)).sum(1)
    return np.where(ok, logdet - np.log(s).sum(1), np.inf)


def _extrapolate(logs, resid):
    """Anderson (type II) extrapolation of log s, or None.

    From the iterates u_j = log s_j and residuals f_j = log s_j' - log s_j
    (s_j' the plain step from s_j), gamma minimizes |f_k - dF gamma| over the
    differences dF of the residuals, solved through its m x m Gram matrix,
    and the next iterate is u_k + f_k - (dU + dF) gamma (Walker and Ni,
    SIAM J. Numer. Anal. 49 (2011)).  It is shifted so that its largest entry
    is 0: a common factor of s changes neither the potential nor the
    alternating step.  Returns the candidate s, or None when the history is
    one step, the Gram matrix is singular or the candidate is not finite and
    positive.
    """
    if len(logs) < 2:
        return None
    u, f = np.array(logs), np.array(resid)
    du, df = u[1:] - u[:-1], f[1:] - f[:-1]
    with np.errstate(all="ignore"):
        try:
            gamma = np.linalg.solve(df @ df.T, df @ f[-1])
        except np.linalg.LinAlgError:
            return None
        v = u[-1] + f[-1] - gamma @ (du + df)
        s = np.exp(v - v.max())
    # s lies in [0, 1] or carries a NaN, which fails this test too.
    return s if s.min() > 0.0 else None


def _next_scaling(a, s, plain, logs, resid, tol: Tolerances):
    """The scaling vector after the step from s to ``plain``, with the stack
    B_i = s_i A_i and its sum.

    The Anderson extrapolation of log s is taken where the capacity
    potential is no larger there than at ``plain``, and ``plain`` otherwise.
    A plain step never raises the potential, so neither does this choice.
    """
    logs.append(np.log(s))
    resid.append(np.log(plain) - logs[-1])
    del logs[: -_ANDERSON_DEPTH - 1], resid[: -_ANDERSON_DEPTH - 1]
    cand = _extrapolate(logs, resid)
    if cand is None:
        mats = plain[:, None, None] * a
        return plain, mats, mats.sum(0)
    both = np.array((cand, plain))
    mats = both[:, :, None, None] * a
    totals = mats.sum(1)
    phi = _potential(totals, both, tol)
    k = 0 if phi[0] <= phi[1] else 1
    return both[k], mats[k], totals[k]


def _scale_vector(t: MatrixTuple, s, tol: Tolerances, max_iter: int) -> ScalingResult:
    """Gurvits scaling on the scaling vector s, Anderson-accelerated.

    Each iteration is one alternating step from B_i = s_i A_i: L =
    (sum s_i A_i)^(-1/2) fixes the identity-sum condition and
    s'_i = s_i / tr(L B_i L) the unit traces.  The loop stops once that
    step's tuple s'_i L A_i L is within ``ds_tol`` of doubly stochastic.  The
    result carries X = L and trace_scalars = s' of the last step (X = I and
    s' = s when s already scales the tuple).  Hitting ``max_iter`` raises
    ``NonConvergence`` carrying a result with stop_reason "max_iter".
    """
    n = t.n
    eye = np.eye(n)
    a = t.matrices
    mats = s[:, None, None] * a
    total = mats.sum(0)
    x, scalars = np.eye(n, dtype=np.complex128), s
    defect = sum(_trace_and_sum_violations(mats, total, eye))
    logs, resid = [], []
    it = 0
    while defect > tol.ds_tol and it < max_iter:
        if it:
            s, mats, total = _next_scaling(a, s, scalars, logs, resid, tol)
        x = inv_sqrt_psd(total, tol)
        mats = x @ mats @ x
        mats += mats.conj().transpose(0, 2, 1)
        mats /= 2.0
        traces = mats.trace(axis1=1, axis2=2).real
        if (traces <= 0.0).any():
            raise SingularPencil("a slot lost its trace during scaling")
        mats /= traces[:, None, None]
        scalars = s / traces
        it += 1
        total = mats.sum(0)
        defect = sum(_trace_and_sum_violations(mats, total, eye))
    converged = defect <= tol.ds_tol
    log_s = np.log(scalars)
    result = ScalingResult(
        scaled=MatrixTuple(mats),
        alpha=np.exp(log_s - log_s.mean()),
        transform_X=x,
        trace_scalars=scalars,
        ds_defect=defect,
        iterations=it,
        converged=converged,
        stop_reason="ds_tol" if converged else "max_iter",
    )
    if not converged:
        raise NonConvergence(
            f"scaling stalled at ds_defect = {defect:.3e} after {it} iterations",
            result=result,
        )
    return result


def capacity_via_scaling(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL, max_iter: int = SCALING_MAX_ITER
) -> float:
    """Cap(t) from cold scaling (``_scale_cold``), read off by
    ``_capacity_of_scaling``.  Raises ``NotIndecomposable`` on a decomposable
    tuple and ``NonConvergence`` (carrying a "max_iter" result) when
    ``max_iter`` steps leave the defect above ``ds_tol``.
    """
    return _capacity_of_scaling(_scale_cold(t, tol, max_iter))


def _capacity_of_scaling(res: ScalingResult) -> float:
    """Cap of the scaled tuple's source: |det X|^(-2) / prod(trace_scalars).

    Exact at the fixed point because Cap(scaled) = |det X|^2 prod(s) Cap(t)
    for any number of iterations, and Cap of a doubly stochastic tuple is 1.
    """
    sign, logdet = np.linalg.slogdet(res.transform_X)
    log_cap = -2.0 * float(logdet) - float(np.sum(np.log(res.trace_scalars)))
    return math.exp(log_cap)


def capacity_bound_report(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, bool]:
    """Cap(t) / D(t) and whether it sits inside [1, n^n / n!] with 1e-6 slack.

    ``within`` is False when the capacity solve did not converge.
    """
    d = eval_polarized(t)
    if d <= 0.0:
        raise PreconditionViolated(f"D(t) = {d:.3e} is not positive")
    cap = capacity(t, tol)
    ratio = cap.value / d
    upper = float(n_pow_n_over_factorial(t.n))
    within = cap.converged and (1.0 - 1e-6) <= ratio <= upper + 1e-6
    return ratio, within


def n_pow_n_over_factorial(n: int) -> float:
    return float(n**n) / float(math.factorial(n))
