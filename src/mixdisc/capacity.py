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
  are dropped where the gradient along them is below ``_GRADIENT_TOL``, a
  fixed 1e-9 (f is flat there, as on decomposable tuples), and followed
  where it is not (f falls linearly there, as on a pencil collapsing toward
  Cap = 0).  Armijo
  backtracking runs on the Newton decrement lambda^2 = -grad f . d, and a
  trial point whose computed pencil is singular counts as a rejected step.
* ``capacity_via_scaling`` reads Cap off Gurvits operator scaling started
  from the tuple itself (``scale_to_doubly_stochastic``, s = 1), which
  shares nothing with the Newton solver.  It is the independent oracle:
  Cap = |det X|^(-2) / prod s' at the end of the scaling loop below.

Every doubly stochastic scaling runs one loop, ``_scale_vector``, whose
state is the scaling vector s of each tuple of a (B, n, n, n) stack, from
s = 1.  One alternating step from s gives
L = M^(-1/2) (``core._inv_sqrt``), M = sum s_i A_i, and
s'_i = s_i / tr(L s_i A_i L) = 1 / tr(M^-1 A_i), and the loop stops once
s'_i L A_i L is doubly stochastic within the stop ``core._ds_limit`` gives,
``ds_tol`` floored at 4 n eps.  The result carries
X = L of that last step, which is Hermitian, and trace_scalars = s', so the
scaled tuple is s'_i X A_i X^*.  The next s is the Anderson extrapolation of
log s over the last ``_ANDERSON_DEPTH`` steps (Walker and Ni 2011), taken
only where the capacity potential Phi(s) = log det(sum s_i A_i) - sum log s_i
is no larger than at s'; otherwise s' is taken.  A plain step never raises
Phi (AM-GM on both terms), so neither does the guarded one.  Plain
alternating scaling converges only linearly, at a rate that tends to 1 near
decomposable or boundary tuples, where it takes thousands of steps.  A
tuple whose slot-sum defect has not fallen below ``_STALL_GAIN`` times its
last recorded low for ``_STALL_WINDOW`` steps stops there, short of its stop
test: rounding holds it above the floor.

There is one route, ``_scale_stack``, on a (B, n, n, n) stack and its slots'
eigenvalues: the stacked indecomposability test
(``structure._rank_tests``), then one loop from s = 1 over the stack of the
tuples that pass, in which each tuple keeps its own Anderson history,
potential guard, stop test, step count and exception.  A tuple leaves the
stack at one point per iteration, its top, once it has an outcome: a result
or ``NonConvergence`` from the stop test there, or the failure the last step
marked.  Every batched operation computes a tuple's values from that tuple
alone, by the per-slice BLAS and LAPACK calls of a one-tuple stack, so a
tuple's result has the bits of its own scaling whatever its batch.  The
route touches no memo.  ``scale_to_doubly_stochastic`` is its
one-tuple call, on the tuple's memoized slot eigenvalues, which the oracle
and the ``scale`` command take; ``extremal._random_ds_stack`` scales each
round of its draws as one stack, on the eigenvalues of one batched
``eigvalsh``.  None of them runs Newton.  On seeded
draws the loop took 7 steps in the median and at most 10 on Wishart tuples
(n = 2..6), at most 17 with one rank-one + 1e-6 I slot (n = 3), at most 24
with two equal such slots, and at most 14 on near-decomposable and on
1e+-6 slot-scaled Wishart tuples (n = 2..5).

Each point the Newton loop evaluates, trial points of the line search
included, costs one slot sum and one ``slogdet`` for f.  An accepted point
adds one LU solve of M against the n slots side by side, an (n, n^2)
right-hand side, so M is factored once rather than once per slot; one
(n, n^2) by (n^2, n) product for the Gram matrix tr(q_i q_j); and one n x n
Hermitian eigensolve for the step.  A scaling step costs one batched
Hermitian eigensolve of the candidate slot sums of every tuple in the loop,
whose eigenvalues give both potentials and whose chosen eigenpairs give L,
and the few products that ``_scale_vector`` lists, each one call for the
whole stack.  At one tuple a scaling costs about 13% more than a loop
written for one tuple, in numpy's per-call overhead (300 seeded Wishart
tuples, n = 2..6, timed call by call in one process on a shared 2-core
x86-64 host); at 200 tuples of n = 2..6 a draw of ``random_ds_tuples``
costs 0.15 to 0.21 of ``random_ds_tuple``'s (seeds 1000-1199, one BLAS
thread, a shared 2-core x86-64 host).  The precondition of a scaling is one
PSD check and one indecomposability test per tuple, with no gate on n, read
off the slots' eigenvalues, which also rank them: a tuple of full-rank
slots, such as a Wishart draw, costs no more than those eigenvalues.  Any
other tuple adds one batched eigensolve of its slots, one n x n SVD and, on
a decomposable verdict, one eigensolve of the sum of the witness's range
projectors.

``CapacityResult.stop_reason`` says why the Newton loop stopped:

* ``"gradient"``: the projected gradient norm fell below ``_GRADIENT_TOL``,
  a fixed 1e-9 that no ``Tolerances`` field sets;
* ``"roundoff"``: lambda^2 <= 256 eps (1 + |f|), eps = 2^-52 the machine
  epsilon (``core._EPS``, twice the unit round-off u = 2^-53).
  Since lambda^2 / 2 estimates f - min f, Cap is then accurate to about
  128 eps (1 + |f|) relative, i.e. to working precision; this is how Newton
  stops when round-off keeps the gradient above ``_GRADIENT_TOL``.  It is
  also the stop when backtracking finds no decrease while lambda^2 is within the
  rounding noise of f, estimated as n eps cond(M) (1 + |f|) (rounding M by
  eps |M| moves log det M by up to n eps cond(M)): on an ill-conditioned M
  no line search can see a decrease that small, and Cap is as accurate as f;
* ``"stalled"``: backtracking found no decrease while lambda^2 was still above
  that noise; the best iterate is returned with ``converged=False``;
* ``"max_iter"``: the iteration cap ``CAPACITY_MAX_ITER`` was hit;
  ``NonConvergence`` is raised and carries the result.

On mean-zero y, det(sum e^{y_i} A_i) >= Cap.  So ``SingularPencil`` is raised,
as a verdict of Cap = 0 (the weak rank condition fails), when that det falls
below 1e-300 at any point the solver evaluates, when a ``"roundoff"`` or
``"stalled"`` stop lands on a pencil that is singular to working precision,
and when a slot is not PSD: some g_i < 0 beyond rounding (``_require_psd_gradient``).

``ScalingResult.stop_reason`` is ``"ds_tol"`` on a returned result whose
defect is within ``ds_tol``, and ``"roundoff"`` on one whose defect is
within only the stop's rounding floor, 4 n eps, when ``ds_tol`` is below
it (``core._ds_limit`` and ``core._ds_stop_reason``); the result that
``NonConvergence`` carries has ``"max_iter"`` when scaling hits
``SCALING_MAX_ITER`` and ``"stalled"`` when its defect stopped falling first.

A ``MatrixTuple`` never changes, so results are memoized on it
(``MatrixTuple._memoized``) and each is computed once per tuple.  Its mixed
discriminant D is one entry, filled only by ``eval_polarized`` (the float
that passed the residue gate; ``gradient`` leaves the entry alone, since its
``value`` never passed that gate), so ``capacity_bound_report`` reads the D
the caller's ``eval_polarized`` already computed.  Two entries belong to this
layer, each with one writer.  ``capacity`` keeps the Newton
``CapacityResult`` by ("newton", ``Tolerances``), made only
after the PSD check at those tolerances (a read of the memoized slot
eigenvalues); its ``minimizer_x`` is read-only.
``scale_to_doubly_stochastic`` keeps the ``ScalingResult`` by ("scaling",
``Tolerances``), made by its one-tuple call of
``_scale_stack``, so the indecomposability test at those tolerances and the
loop run once per tuple; its arrays are read-only.  ``_scale_stack`` and
the sampler touch no memo.
``capacity_via_scaling`` reads Cap off that same entry and takes nothing
from Newton.  An exception is never memoized.  Both computations are
deterministic, so a hit returns the bits a fresh tuple would give.
``genaf.expand_tuple`` returns the tuple itself for the all-ones weight, so
``check_theorem52`` reuses the tuple's own solve there.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _EPS,
    DEFAULT_TOL,
    NonConvergence,
    NotIndecomposable,
    NotPositiveDefinite,
    PreconditionViolated,
    SingularPencil,
    Tolerances,
    _below,
    _definite,
    _ds_limit,
    _ds_stop_reason,
    _eigh,
    _inv_sqrt,
    _one,
)
from .discriminant import (
    MatrixTuple,
    _require_psd,
    _slot_eigenvalues,
    _trace_and_sum_violations,
    eval_polarized,
)
from .structure import _rank_tests

_LOG_FLOOR = math.log(1e-300)
# Newton converges in 3 steps in the median on Wishart tuples, and took at
# most 14 on 500 seeded draws each (n = 2..6) of Wishart tuples, one
# rank-one + 1e-6 I slot, n - 1 repeated such slots and 1e+-6 slot-scaled
# Wishart slots; the cap bounds the damped phase on worse input.  Both caps
# are read at call time.
CAPACITY_MAX_ITER = 100
# Scaling steps: the accelerated loop takes tens near the boundary; the cap
# bounds a tuple so close to a decomposable one that it runs long.
SCALING_MAX_ITER = 10000
# Anderson depth m of the capacity oracle: its extrapolation combines the
# last m + 1 iterates (m differences).
_ANDERSON_DEPTH = 3
# Scaling steps without a new low of a tuple's slot-sum defect after which
# the tuple stops "stalled"; a new low counts only below _STALL_GAIN times
# the last one, so rounding noise just above the floor restarts no window.
# A converging tuple went at most 11 steps without a new low (seeded Wishart
# tuples of n = 2..6 and near-boundary tuples of n = 3, one or two
# rank-one + 1e-6 I slots).
_STALL_WINDOW = 50
_STALL_GAIN = 0.1
_ARMIJO = 1e-4
# Below this lambda^2 the predicted decrease lambda^2 / 2 is within ~128 ulps
# of f, about the rounding error of log det itself, so no line search can
# resolve further progress and Cap is already that accurate.
_ROUNDOFF = 256.0 * _EPS
# The Newton loop stops "gradient" once the projected gradient norm is below
# this, and a direction without curvature is followed only where the
# gradient along it reaches it.  On tuples with tight sets (ROADMAP item 2)
# the stop is what keeps Newton from a singular pencil or a wrong value.
_GRADIENT_TOL = 1e-9


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
    """A doubly stochastic scaling: the scaled tuple s'_i X A_i X^*, X and
    s', its full defect (trace plus sum violation) and the steps taken.
    ``stop_reason`` is "ds_tol" when the defect is within ``ds_tol``;
    "roundoff" when ``ds_tol`` is below the stop's rounding floor
    (``core._ds_limit``) and the defect is within that floor only
    (``converged`` is True for both); "max_iter" or "stalled" on the result
    that ``NonConvergence`` carries."""

    scaled: MatrixTuple
    transform_X: np.ndarray
    trace_scalars: np.ndarray
    ds_defect: float
    iterations: int
    converged: bool
    stop_reason: str


def _objective(mats, y):
    """f(y) = log det(sum e^{y_i} A_i), with M and w scaled by e^{-max y}.

    The shift keeps e^y finite for any y; w_i M^{-1} A_i is unchanged by it.
    M is one product w @ (the slots flattened to rows).  Returns None where
    the computed M is singular, which is a rounding verdict on an overlong
    step and says nothing about Cap.  Raises ``SingularPencil`` where the
    computed det(M) is positive but f < log(1e-300): mean-zero y has
    prod e^{y_i} = 1, so det(M) >= Cap there, and Cap < 1e-300.
    """
    n = len(y)
    top = float(y.max())
    w = np.exp(y - top)
    m = (w @ mats.reshape(n, n * n)).reshape(n, n)
    sign, logdet = np.linalg.slogdet(m)
    if not sign.real > 0.0:
        return None
    f = n * top + float(logdet)
    if f < _LOG_FLOOR:
        raise SingularPencil(
            "det(sum e^{y_i} A_i) < 1e-300 at prod e^{y_i} = 1; "
            "the tuple violates the weak rank condition"
        )
    return f, m, w


def _newton_direction(q, g, r):
    """Newton direction d (mean zero) and decrement lambda^2 = -r . d.

    q holds q_i = w_i M^{-1} A_i side by side, q[a, i, b] = (q_i)_{ab}, as
    the one solve of ``_newton`` returns it, so H = diag(g) - [tr(q_i q_j)]
    stays finite however far M is from the identity.  The Gram matrix
    tr(q_i q_j) = sum_ab (q_i)_ab (q_j)_ba is one (n, n^2) by (n^2, n)
    product.  d comes from one Hermitian eigendecomposition of
    H + 1 1^T / n.  An eigendirection whose curvature is below working
    precision is left alone where the gradient along it is below
    ``_GRADIENT_TOL`` too (f is flat there, as on decomposable tuples), and
    followed with its curvature raised to that precision where it is not (f
    falls linearly there: the pencil is collapsing toward Cap = 0).  H stays in the complex
    dtype of q (its imaginary part is rounding error), so this is the
    Hermitian eigensolver the package already loads; a real or least-squares
    LAPACK routine would add to peak memory.
    """
    n = len(g)
    rows = q.transpose(1, 0, 2).reshape(n, n * n)  # row i: vec(q_i)
    cols = q.transpose(2, 0, 1).reshape(n * n, n)  # column j: vec(q_j^T)
    h = 1.0 / n - rows @ cols
    h.flat[:: n + 1] += g
    lam, v = np.linalg.eigh(h)
    if not lam[-1] > 0.0:  # exactly, H 1 = 0 puts eigenvalue 1 on the ones vector
        raise SingularPencil("Newton Hessian lost its eigenvalue 1: M is singular")
    c = v.conj().T @ r
    cut = n * _EPS * lam[-1]
    use = (lam > cut) | (np.abs(c) >= _GRADIENT_TOL)
    d = -(v @ np.where(use, c / np.maximum(lam, cut), 0.0)).real
    d -= float(d.sum()) / n
    return d, -float(r @ d)


def _require_psd_gradient(m, g) -> None:
    """``SingularPencil`` where M is singular to working precision or some
    g_i = w_i tr(M^{-1} A_i) is below -n^2 eps cond(M).  PSD slots make g_i the
    trace of the PSD w_i M^{-1/2} A_i M^{-1/2}; the LU solve moves it by a
    factor O(n eps cond(M)) of itself, and summing the diagonal of
    w_i M^{-1} A_i (Frobenius norm <= sqrt(n cond(M))) adds <= n^2 eps cond(M).
    Below that a slot that passed ``psd_tol`` is not PSD, and Cap = 0."""
    n, ev = len(g), np.linalg.eigvalsh(m)
    if ev[0] <= n * _EPS * ev[-1] or float(g.min()) * ev[0] < -n * n * _EPS * ev[-1]:
        raise SingularPencil(
            f"w_i tr(M^-1 A_i) = {g.min():.3e} < 0 beyond rounding or at a singular "
            "M: a slot is not PSD or the weak rank condition fails, so Cap = 0"
        )


def _backtrack(mats, y, f, d, lam2):
    """Armijo backtracking from the full Newton step.

    Halves the step until f decreases enough; a trial point whose computed
    pencil is singular counts as a rejected step.  Returns None once the step
    is below the rounding of y, s ||d|| <= eps (1 + ||y||), which bounds the
    halvings by about 53 + log2(||d|| / (1 + ||y||)).
    """
    tiny = _EPS * (1.0 + math.sqrt(float(y @ y)))
    s = 1.0
    dnorm = math.sqrt(float(d @ d))
    while s * dnorm > tiny:
        y_new = y + s * d
        trial = _objective(mats, y_new)
        if trial is not None and trial[0] < f - _ARMIJO * s * lam2:
            return (y_new, *trial)
        s *= 0.5
    return None


def _newton(mats) -> CapacityResult:
    """The damped-Newton loop of ``capacity`` on a PSD stack, without its
    precondition check; a ``"max_iter"`` result is returned, not raised.
    Its ``minimizer_x`` is read-only, since the result is memoized.

    Each point costs one LU solve of M against the slots side by side, an
    (n, n^2) right-hand side."""
    n = len(mats)
    side = mats.transpose(1, 0, 2).reshape(n, n * n)
    y = np.zeros(n)
    start = _objective(mats, y)
    if start is None:
        raise SingularPencil(
            "sum A_i is singular; the tuple violates the weak rank condition"
        )
    f, m, w = start
    it = 0
    while True:
        q = np.linalg.solve(m, side).reshape(n, n, n)
        q *= w[:, None]
        g = np.trace(q, axis1=0, axis2=2).real
        if g.min() < 0.0:
            _require_psd_gradient(m, g)
        r = g - float(g.sum()) / n
        gnorm = math.sqrt(float(r @ r))
        if gnorm < _GRADIENT_TOL:
            stop = "gradient"
            break
        d, lam2 = _newton_direction(q, g, r)
        if lam2 <= _ROUNDOFF * (1.0 + abs(f)):
            stop = "roundoff"
            break
        if it >= CAPACITY_MAX_ITER:
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
    x = np.exp(y)
    x.flags.writeable = False
    return CapacityResult(
        value=math.exp(f),
        minimizer_x=x,
        gradient_norm=gnorm,
        iterations=it,
        converged=stop in ("gradient", "roundoff"),
        stop_reason=stop,
    )


def capacity(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> CapacityResult:
    """Cap(t) by damped Newton on log det(sum e^{y_i} A_i) over sum y_i = 0.

    See the module docstring for the step and the stop reasons.  Raises
    ``NonConvergence`` (carrying the result) when ``CAPACITY_MAX_ITER``
    Newton steps leave the iterate short of every stopping test, and
    ``SingularPencil`` when Cap is zero to working precision.  The result is
    kept on t by ("newton", tol) and made only after the PSD check of t at
    ``tol``, so a hit needs no check.
    """

    def solve():
        _require_psd(t, tol)
        return _newton(t.matrices)

    result = t._memoized(("newton", tol), solve)
    if result.stop_reason == "max_iter":
        raise NonConvergence(
            f"capacity Newton hit max_iter = {result.iterations} with gradient norm "
            f"{result.gradient_norm:.3e}",
            result=result,
        )
    return result


def scale_to_doubly_stochastic(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> ScalingResult:
    """Doubly stochastic scaling of t by ``_scale_vector`` from s = 1: the
    one-tuple call of ``_scale_stack``, on t's memoized slot eigenvalues.

    The indecomposability test runs first (it also checks that the slots are
    PSD).
    ``SCALING_MAX_ITER`` and ``iterations`` count scaling steps.  Raises
    ``NotIndecomposable`` on a decomposable tuple and ``NonConvergence``
    when ``SCALING_MAX_ITER`` steps leave the defect above ``ds_tol``
    (carrying a "max_iter" result) or the defect stops falling first
    ("stalled").  The result is kept on t by ("scaling", tol), so the test
    and the loop run once per tuple.
    """
    return t._memoized(
        ("scaling", tol),
        lambda: _one(_scale_stack(t.matrices[None], _slot_eigenvalues(t)[None], tol)),
    )


def _scale_stack(mats: np.ndarray, w: np.ndarray, tol: Tolerances) -> list:
    """``scale_to_doubly_stochastic`` of each tuple of a (B, n, n, n) stack
    whose slots have the ascending eigenvalues w (B, n, n): its
    ``ScalingResult``, or the exception it raises, in stack order.

    The indecomposability test of every tuple (``structure._rank_tests``)
    comes first, and the tuples that pass are scaled by one
    ``_scale_vector`` loop over their stack.  A tuple's outcome does not
    depend on the stack it came in.
    """
    out = _rank_tests(mats, w, tol)
    todo = [j for j, verdict in enumerate(out) if verdict == (True, None)]
    for j, res in zip(todo, _scale_vector(mats[todo], tol)):
        out[j] = res
    return [
        NotIndecomposable(f"tuple decomposes; witness subset {res[1]}") if isinstance(res, tuple) else res
        for res in out
    ]


def _potential(w, s, tol: Tolerances) -> np.ndarray:
    """Phi(s) = log det(sum s_i A_i) - sum log s_i for each row of the (k, n)
    array s, given the (k, n) ascending eigenvalues w of the slot sums.

    Cap is the infimum of exp(Phi).  Phi is +inf where a sum fails
    ``core._definite``, so no step is taken to a point whose M^(-1/2) the
    next alternating step could not take.
    """
    # w / s overflows where an Anderson candidate has a tiny s_i; the
    # potential is then +inf, which only rejects that candidate.  Where a
    # sum is not definite its log may be NaN, which the +inf replaces.
    with np.errstate(all="ignore"):
        phi = np.log(w / s).sum(1)
    return np.where(_definite(w, tol), phi, np.inf)


def _candidates(du, df, log_s, res, plain):
    """The two candidate starts of the next step of each of k tuples, as a
    (k, 2, n) array: the Anderson (type II) extrapolation of log s, or the
    plain step where there is none, and the plain step ``plain``.

    From the iterates u_j = log s_j and residuals f_j = log s_j' - log s_j
    (s_j' the plain step from s_j): the newest, ``log_s`` and ``res``, and
    the lists ``du`` and ``df`` of the m newest differences u_{j+1} - u_j
    and f_{j+1} - f_j, oldest first, all (k, n) arrays.  gamma minimizes
    |f - dF gamma| over the differences dF, solved through its m x m Gram
    matrix, and the candidate is u + f - (dU + dF) gamma (Walker and Ni, SIAM
    J. Numer. Anal. 49 (2011)).  It is shifted so that its largest entry is
    0: a common factor of s changes neither the potential nor the
    alternating step.  A tuple has no candidate where its Gram matrix is
    singular or its candidate is not finite and positive.
    """
    # (k, m, n) views of the differences; the products below see each
    # tuple's rows alone, by BLAS calls that take its row stride.
    du, df = np.array(du).swapaxes(0, 1), np.array(df).swapaxes(0, 1)
    gram, rhs = df @ df.swapaxes(1, 2), df @ res[..., None]
    try:
        gamma = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:  # a singular Gram matrix: no candidate there
        gamma = np.full(rhs.shape, np.nan)
        for j in range(len(gram)):
            with contextlib.suppress(np.linalg.LinAlgError):
                gamma[j] = np.linalg.solve(gram[j], rhs[j])
    pairs = np.empty((len(plain), 2, plain.shape[1]))
    pairs[:, 1] = plain
    s = pairs[:, 0]
    with np.errstate(all="ignore"):
        v = log_s + res - (gamma.swapaxes(1, 2) @ (du + df))[:, 0]
        np.exp(v - v.max(1, keepdims=True), out=s)
    # s lies in [0, 1] or carries a NaN, which fails this test too.
    if not s.min() > 0.0:
        bad = ~(s.min(1) > 0.0)
        s[bad] = plain[bad]
    return pairs


def _congruence(a, s, x):
    """The tuple s_i X A_i X, symmetrized and normalized to unit traces, and
    the scalars s_i / tr(s_i X A_i X) that it carries."""
    mats = x @ (s[:, None, None] * a) @ x
    mats += mats.conj().transpose(0, 2, 1)
    mats /= 2.0
    traces = mats.trace(axis1=1, axis2=2).real
    if (traces <= 0.0).any():
        raise SingularPencil("a slot lost its trace during scaling")
    mats /= traces[:, None, None]
    return mats, s / traces


def _finish(a, s, x, eye, it, cap, tol: Tolerances, stop: float):
    """One tuple's outcome once the loop's stop test passes for it, or at
    its cap, from its slots ``a``, the start s of its last step, that step's
    L and the n x n identity: its ``ScalingResult``, the ``NonConvergence``
    that carries it where the loop ends it short of ``stop``
    (``core._ds_limit``) for the reason ``cap`` ("max_iter" or
    "stalled"), a ``SingularPencil`` where a slot lost its trace, or None
    when rounding leaves the formed tuple's full defect above ``stop``, the
    ``cap`` is None and the loop goes on.  The stop reason is
    ``core._ds_stop_reason``'s.
    The three arrays of a result are read-only, since results are memoized."""
    x = (x + x.conj().T) / 2.0
    try:
        mats, trace_scalars = _congruence(a, s, x)
    except SingularPencil as exc:
        return exc
    defect = sum(_trace_and_sum_violations(mats, mats.sum(0), eye))
    converged = defect <= stop
    if not converged and cap is None:
        return None
    for array in (x, trace_scalars):
        array.flags.writeable = False
    result = ScalingResult(
        scaled=MatrixTuple._of_hermitian(mats),
        transform_X=x,
        trace_scalars=trace_scalars,
        ds_defect=defect,
        iterations=it,
        converged=converged,
        stop_reason=_ds_stop_reason(defect, tol) if converged else cap,
    )
    if converged:
        return result
    return NonConvergence(
        f"scaling {cap} at ds_defect = {defect:.3e} after {it} iterations", result=result
    )


def _scale_vector(mats: np.ndarray, tol: Tolerances) -> list:
    """Gurvits scaling of each tuple of a (B, n, n, n) stack on its scaling
    vector s from s = 1, Anderson-accelerated: per tuple its ``ScalingResult``
    or the exception that ended its loop.

    Each iteration is one alternating step from s for every tuple still in
    the loop: ``_inv_sqrt`` of the eigenpairs of M = sum s_i A_i gives
    L = M^(-1/2), and M^-1 = L^2 gives s'_i = 1 / tr(M^-1 A_i) by one
    matrix-vector product.  The step's tuple s'_i L A_i L has unit traces by
    construction and slot sum L M(s') L, so the loop tests
    max|L M(s') L - I| <= ``ds_tol`` without forming it; only when that
    passes (or at ``SCALING_MAX_ITER``) is the (n, n, n) tuple formed and
    its full defect checked (``_finish``), and the loop goes on if rounding
    leaves that above ``ds_tol``.  Both tests read the stop
    ``core._ds_limit(n, tol, stop=True)``, floored at 4 n eps, the rounding
    of the defect, which a tuple may never get under.  At ``ds_tol`` = 0,
    360 seeded Wishart tuples (n = 2..7) all stopped at that floor within
    15 steps; at 2 n eps one of them ran to the cap.  The start s = 1 is
    checked the same way, with L = I.  A tuple also ends, "stalled", once that
    slot-sum defect has not fallen below ``_STALL_GAIN`` times its last
    recorded low for ``_STALL_WINDOW`` steps: some tuples sit just above the
    floor in rounding noise (about one n = 2 Wishart draw in 700 at
    ``ds_tol`` = 0), and would run to ``SCALING_MAX_ITER``.  A result
    carries X = L and trace_scalars = s' of the last step (X = I when the
    tuple is already doubly stochastic).

    A tuple's outcome is its result, a ``NonConvergence`` carrying a
    "max_iter" or "stalled" result, a ``NotPositiveDefinite`` naming its
    own eigenvalues where its M fails ``core._definite``, or a
    ``SingularPencil`` where a slot loses its trace (tr(M^-1 A_i) <= 0).
    The step marks both failures in one mask, the trace test, since L = 0
    stands in for M^(-1/2) where M is not definite; the definiteness mask
    is read only when ``_inv_sqrt`` refuses the stack, so a step whose
    every M is definite pays for the one check inside ``_inv_sqrt``.  Each
    iteration has one retirement point, at its top: the stop test skips the
    tuples the last step marked, and they leave the stack in one compaction
    with the tuples that ``_finish`` gave an outcome there.  The loop returns
    there once no tuple is left, before any compaction, so an empty stack
    returns [] at once.

    Every tuple keeps its own Anderson history, potential guard, stop test,
    lowest defect and step count, and each batched operation computes a
    tuple's values from that tuple alone, by the per-slice BLAS and LAPACK
    calls of its own B = 1 loop; so a tuple's result does not depend on its
    batch.
    """
    b, n = mats.shape[:2]
    eye = np.eye(n)
    stop = _ds_limit(n, tol, stop=True)
    out = [None] * b
    pos, a = np.arange(b), mats
    # Row i of flat[k] is vec(A_i) and row i of rows[k] holds (A_i)_ba at
    # position (a, b), so rows[k] @ vec(B) = tr(B A_i).
    flat = a.reshape(b, n, n * n)
    rows = a.swapaxes(-1, -2).reshape(b, n, n * n)
    # Each tuple's last recorded low of its slot-sum defect and its step.
    best, best_it = np.full(b, np.inf), np.zeros(b, dtype=int)
    s = scalars = np.ones((b, n))
    x = np.eye(n, dtype=np.complex128)[None].repeat(b, 0)
    odds = np.arange(1, 2 * b, 2)
    # The Anderson history: the newest log s and residual log s' - log s,
    # and lists of their last _ANDERSON_DEPTH differences, (B, n) arrays.
    log_s = res = np.zeros((b, n))
    du, df = [], []
    failed = np.zeros(b, dtype=bool)
    it = 0
    while True:
        total = (scalars[:, None] @ flat).reshape(-1, n, n)
        defect = abs(x @ total @ x - eye).max((1, 2))
        low = defect < _STALL_GAIN * best
        best_it[low], best[low] = it, defect[low]
        stalled = best_it <= it - _STALL_WINDOW
        # The one retirement point: a tuple that failed in the last step is
        # skipped by the stop test and leaves with those _finish ends here.
        gone = failed.tolist()
        capped = it >= SCALING_MAX_ITER
        for j in range(len(pos)) if capped else ((defect <= stop) | stalled).nonzero()[0]:
            cap = "max_iter" if capped else "stalled" if stalled[j] else None
            result = None if gone[j] else _finish(a[j], s[j], x[j], eye, it, cap, tol, stop)
            if result is not None:
                out[pos[j]], gone[j] = result, True
        if all(gone):
            return out
        if any(gone):
            keep = np.logical_not(gone)
            pos, a, flat, rows, s, scalars, x, total, log_s, res, best, best_it = (
                arr[keep]
                for arr in (pos, a, flat, rows, s, scalars, x, total, log_s, res, best, best_it)
            )
            du, df = [d[keep] for d in du], [d[keep] for d in df]
        if it:
            new_log_s = np.log(s)
            new_res = np.log(scalars) - new_log_s
            if it > 1:
                du.append(new_log_s - log_s)
                df.append(new_res - res)
                del du[:-_ANDERSON_DEPTH], df[:-_ANDERSON_DEPTH]
            log_s, res = new_log_s, new_res
        s = scalars
        if it < 2:
            w, v = _eigh(total)
        else:
            # Each tuple sums its extrapolation and its plain step as one
            # two-row product and takes the extrapolation where its potential
            # is no larger than the plain step's.
            pairs = _candidates(du, df, log_s, res, scalars)
            w, v = _eigh((pairs @ flat).reshape(-1, n, n))
            pairs = pairs.reshape(-1, n)
            phi = _potential(w, pairs, tol)
            # Row 2k of tuple k is its extrapolation, row 2k + 1 its plain step.
            pick = odds[: len(pos)] - (phi[0::2] <= phi[1::2])
            w, v, s = w.take(pick, 0), v.take(pick, 0), pairs.take(pick, 0)
        try:
            x = _inv_sqrt(w, v, tol)
        except NotPositiveDefinite:
            # L = 0 stands in where M is not definite, so that every trace
            # below vanishes and the tuple fails with the trace losses.
            definite = _definite(w, tol)
            x = _inv_sqrt(np.where(definite[:, None], w, 1.0), v, tol)
            x[~definite] = 0.0
        # s'_i = s_i / tr(L s_i A_i L) = 1 / tr(M^-1 A_i), with M^-1 = L^2.
        inv_traces = (rows @ (x @ x).reshape(-1, n * n, 1))[..., 0].real
        failed = (inv_traces <= 0.0).any(1)
        if failed.any():
            for j in failed.nonzero()[0]:
                out[pos[j]] = (
                    SingularPencil("a slot lost its trace during scaling")
                    if _definite(w[j], tol)
                    else NotPositiveDefinite(f"matrix is not positive definite (eigenvalues {w[j]})")
                )
            inv_traces[failed] = 1.0
        scalars = 1.0 / inv_traces
        it += 1


def capacity_via_scaling(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> float:
    """Cap(t) read off ``scale_to_doubly_stochastic(t, tol)``, with
    that function's exceptions: |det X|^(-2) / prod(trace_scalars).

    Exact at the fixed point because Cap(scaled) = |det X|^2 prod(s) Cap(t)
    for any number of iterations, and Cap of a doubly stochastic tuple is 1.
    """
    res = scale_to_doubly_stochastic(t, tol)
    sign, logdet = np.linalg.slogdet(res.transform_X)
    log_cap = -2.0 * float(logdet) - float(np.sum(np.log(res.trace_scalars)))
    return math.exp(log_cap)


def capacity_bound_report(
    t: MatrixTuple, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, bool]:
    """Cap(t) / D(t) and ``within``: whether the paper's two inequalities,
    Cap >= D and D >= (n!/n^n) Cap, both hold by ``core._below``'s relative
    slack.

    ``within`` is False when the capacity solve did not converge.
    """
    d = eval_polarized(t)
    if not d > 0.0:  # NaN too
        raise PreconditionViolated(f"D(t) = {d:.3e} is not positive")
    cap = capacity(t, tol)
    within = cap.converged and not (_below(cap.value, d) or _below(d, cap.value / n_pow_n_over_factorial(t.n)))
    return cap.value / d, within


def n_pow_n_over_factorial(n: int) -> float:
    """n^n / n!, correctly rounded (Python's integer true division)."""
    return n**n / math.factorial(n)
