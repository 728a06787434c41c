"""Determinantal hyperbolic polynomials: roots, e-traces, and p-mixed values.

Only determinantal representations p(x) = det(sum x_i B_i) with a positive
definite direction pencil are supported.  A pencil is reduced once, by
congruence with L = (sum e_i B_i)^(-1/2), to the slots A_i = L B_i L; the
roots of p(x - lambda e) are then the eigenvalues of sum x_i A_i, so realness
is structural, and the e-trace is the linear form sum x_i tr A_i.

Membership checks take a whole stack of vector tuples, each against its own
pencil, in one pass.  Its e-nonnegativity test reads each pencil's slot
eigenvalues once, from one batched eigensolve of the slots: a vector x >= 0
whose Weyl bound sum_j x_j lambda_min(A_j) clears its rounding margin is
e-nonnegative, with a violation of exactly 0.0, and only the other points
go through one batched ``eigvalsh``, so a report has the bits of an
eigensolve per point.  :func:`conjecture_experiment` runs its pencils in
one pass over fixed blocks: one block draws its doubly stochastic tuples
as one ``extremal._random_ds_stack``, reduces their pencils with one batched
congruence and draws its mixing matrices as one stack of convex
combinations of permutation matrices, doubly stochastic with no iteration;
it checks every mixture against its own pencil in one membership pass,
where a failure raises, and takes the ratios M_p / p(e) as the mixed
discriminants of the mixtures' reduced points, from one call of the
centered kernel, with the report, bit for bit, that those mixtures give one
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .core import (
    _EPS,
    DEFAULT_TOL,
    NumericalInconsistency,
    Tolerances,
    _below,
    _ds_limit,
    _eigh,
    _gate,
    _inv_sqrt,
    as_hermitian,
    iter_seeds,
    make_rng,
    require_finite,
)
from .discriminant import _GATE_POLARIZED, _discriminants
from .extremal import _random_ds_stack, bapat_bound

_MIXTURES_PER_PENCIL = 50  # conjecture_experiment mixtures drawn per sampled pencil
# Mixtures per block of pencils in conjecture_experiment, a multiple of
# _MIXTURES_PER_PENCIL, so a block starts at a pencil; bounds the block's
# membership points, (K, n, n, n) complex, and the one kernel call on its
# mixtures: the kernel's byte budget bounds each tuple's chunk, and
# a stack of K tuples (n < 8) is one chunk of 2^(n-1) combinations per tuple.
_BLOCK_MIXTURES = 1000
# The Weyl bound's rounding margin, in units of n m (eps S + tiny): see _membership.
_WEYL_MARGIN = 8.0
_TINY = np.finfo(float).tiny


class HyperbolicPencil:
    """p(x) = det(sum x_i B_i) with direction e such that sum e_i B_i > 0.

    ``matrices`` is one read-only complex (m, n, n) array whose slice
    ``matrices[i]`` is B_i; ``degree`` is n.  The constructor reduces the
    pencil once: ``_reduced[i]`` is A_i = L B_i L, L = (sum e_i B_i)^(-1/2),
    from which every root and e-trace is read.  The direction, every point
    and every vector of a tuple must be finite: NaN or infinity raises
    ``ValueError`` before any eigensolve.
    """

    __slots__ = ("m", "degree", "matrices", "e", "_reduced")

    def __init__(self, matrices, e, tol: Tolerances = DEFAULT_TOL):
        mats = as_hermitian(matrices, tol.hermitian_tol)
        if mats.ndim != 3 or not mats.size:
            raise ValueError(f"expected a nonempty stack of matrices, got shape {mats.shape}")
        mats.flags.writeable = False
        self.m = len(mats)
        self.degree = mats.shape[-1]
        self.matrices = mats
        e = np.asarray(e, dtype=float)
        if e.shape != (self.m,):
            raise ValueError("direction must have one entry per pencil matrix")
        require_finite(e, "direction")
        # NotPositiveDefinite (a PreconditionViolated) unless core._definite.
        self._reduced = _reduce(mats, self.at(e), tol)
        self.e = e

    def at(self, x) -> np.ndarray:
        return _pencil_points(self.matrices, self._vector(x))

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"point must be a real {self.m}-vector")
        require_finite(x, "point")
        return x

    def value(self, x) -> float:
        """p(x) = det(sum x_i B_i); real for real x and a Hermitian pencil."""
        return float(np.linalg.det(self.at(x)).real)


def _reduce(matrices: np.ndarray, at_e: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The reduced slots L B_i L, symmetrized exactly, of a pencil's matrices
    (m, n, n), or of a stack of pencils (..., m, n, n), with L = B(e)^(-1/2)
    from the eigenpairs of ``at_e``, B(e) (..., n, n); NotPositiveDefinite
    unless every B(e) is ``core._definite``.

    Since L B(e) L = I, the roots of p(x - lambda e) are the eigenvalues of
    sum x_i L B_i L, and det(L)^2 = 1/p(e)."""
    l = _inv_sqrt(*_eigh(at_e), tol)[..., None, :, :]
    a = l @ matrices @ l
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class RootVector:
    """Descending roots of p(x - lambda e) and the root-product residual."""

    lam: np.ndarray
    residual: float


@dataclass(frozen=True)
class HdMembershipReport:
    nonneg_violation: float
    trace_violation: float
    sum_violation: float
    limit: float
    passes: bool


def roots(pencil: HyperbolicPencil, x) -> RootVector:
    """All n roots of p(x - lambda e), descending.

    They are the eigenvalues of sum x_i A_i, A_i = L B_i L the pencil's
    reduced slots, hence real.  The residual compares their product, times
    p(e), against p(x) relatively.
    """
    w = _eigh(_pencil_points(pencil._reduced, pencil._vector(x)), vectors=False)[::-1].copy()
    # p(x - lam e) = det(B(x) - lam E) = det(E) * prod(eig - lam)
    p_x = pencil.value(x)
    scaled = float(np.prod(w)) * pencil.value(pencil.e)
    residual = abs(scaled - p_x) / (1.0 + abs(p_x))
    return RootVector(lam=w, residual=residual)


def trace_e(pencil: HyperbolicPencil, x) -> float:
    """Sum of the roots of p(x - lambda e); linear in x: sum x_i tr A_i."""
    return float(_e_traces(_slot_traces(pencil._reduced), pencil._vector(x)))


def _pencil_points(matrices: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """B(x) = sum_j x_j B_j for every real m-vector of ``xs`` (..., m), with
    the pencil's (m, n, n) matrices, or a stack of pencils (..., m, n, n)
    broadcast against the vectors.

    The terms are added in order of j, one (..., n, n) term at a time: the
    bits of numpy's sum over the j axis, without holding all m terms."""
    points = xs[..., 0, None, None] * matrices[..., 0, :, :]
    for j in range(1, xs.shape[-1]):
        points += xs[..., j, None, None] * matrices[..., j, :, :]
    return points


def _slot_traces(reduced: np.ndarray) -> np.ndarray:
    """The traces tr A_j (..., m) of reduced slots (..., m, n, n), each adding
    its diagonal in order, so a slot's trace has the same bits in any stack."""
    diagonal = reduced.real.diagonal(0, -2, -1)
    return sum((diagonal[..., k] for k in range(1, diagonal.shape[-1])), diagonal[..., 0])


def _e_traces(traces: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The e-traces sum_j x_j tr A_j of the vectors ``xs`` (..., m), from the
    ``_slot_traces`` (m,) of a pencil or a stack of them (..., m) broadcast
    against the vectors: ``_pencil_points`` of the traces as 1 x 1 slots."""
    return _pencil_points(traces[..., None, None], xs)[..., 0, 0]


def mixed_value(pencil: HyperbolicPencil, xs) -> float:
    """p-mixed value of n vectors: the mixed discriminant of their pencil matrices.

    p(sum t_i x_i) = det(sum t_i B(x_i)), so M_p(x_1,..,x_n) is
    D(B(x_1),..,B(x_n)), evaluated by the centered polarization kernel on
    the unreduced slots.
    """
    xs = np.asarray(xs, dtype=float)
    n = pencil.degree
    if xs.shape != (n, pencil.m):
        raise ValueError(f"need exactly {n} real {pencil.m}-vectors (the degree of p)")
    require_finite(xs, "vectors")
    return float(_discriminants(_pencil_points(pencil.matrices, xs)[None])[0])


def _membership(reduced, owner, e, xs: np.ndarray, tol: Tolerances):
    """Membership of a stack (K, k, m) of K vector tuples: the (K,) arrays of
    the nonnegativity, e-trace and sum violations, the limit they are held
    to, the (K,) array ``passes``, and the reduced points sum_j x_j A_j as
    a (K, k, n, n) stack.

    ``reduced`` holds the reduced slots (P, m, n, n) of P pencils, once each,
    and tuple i is checked against pencil ``owner[i]``; ``e`` is the
    direction (m,) they share.  A vector's e-trace is ``_e_traces`` of its
    pencil's ``_slot_traces``, and the vectors of a tuple are added in order.

    The roots of a vector x are the eigenvalues of its point sum_j x_j A_j,
    and its nonnegativity violation is max(0, -lambda_min) of the point's
    ``eigvalsh``.  Most points need no eigensolve: one batched ``eigvalsh``
    of the P m slots gives each its eigenvalues, and for x >= 0 Weyl's
    inequality gives lambda_min(sum_j x_j A_j) >= b = sum_j x_j lambda_min(A_j).
    Where b exceeds the margin c n m (eps S + tiny), with
    S = sum_j x_j ||A_j||_2, ||A_j||_2 the largest |eigenvalue| of the same
    solve, eps the machine epsilon, tiny the least normal float and
    c = ``_WEYL_MARGIN`` = 8, the point's computed lambda_min is positive, so
    its violation is 0.0, what its ``eigvalsh`` would give.  The margin
    covers, taking LAPACK's backward error for a Hermitian n x n eigensolve
    of M as n eps ||M||_2:

    - the slot eigenvalues: lambda_min(A_j) is within n eps ||A_j||_2 of the
      computed one, n eps S in all;
    - the point, formed term by term (``_pencil_points``): each real and
      imaginary part is off by at most gamma_m <= 1.01 m eps / 2 times
      sum_j x_j |A_j|, so the point is off by a Hermitian F with
      ||F||_2 <= ||F||_F <= sqrt(2 n) gamma_m S <= n m eps S;
    - the computed point's ``eigvalsh``: n eps times its norm, at most
      n eps (1 + n m eps) S;
    - b itself, a sum of m terms of size at most x_j ||A_j||_2: m eps S.

    For n, m >= 1 these add up to at most 4 n m eps S (1 + n m eps); c = 8
    doubles that, for the rounding of S and of the margin and for norms read
    off computed eigenvalues.  A result below the normal range is off by at
    most eps tiny absolutely, which the n m tiny term covers.  Every other
    point (a vector with a negative entry, an indefinite or singular slot,
    a point at the boundary) goes through one batched ``eigvalsh``.

    A tuple passes when its three violations are within the verdict limit
    ``core._ds_limit`` at the larger of n and m, the terms an e-trace adds.
    """
    n = reduced.shape[-1]
    m = xs.shape[-1]
    points = _pencil_points(reduced[owner, None], xs)
    slot_eigs = _eigh(reduced, vectors=False)[owner, None]
    lowest = slot_eigs[..., 0]
    norms = np.maximum(-lowest, slot_eigs[..., -1])
    weyl = (xs * lowest).sum(axis=-1)
    margin = _WEYL_MARGIN * n * m * (_EPS * (xs * norms).sum(axis=-1) + _TINY)
    unsettled = ~((xs >= 0.0).all(axis=-1) & (weyl > margin))
    violations = np.zeros(xs.shape[:-1])
    if unsettled.any():
        lam = _eigh(points[unsettled], vectors=False)
        # + 0.0 turns the -0.0 np.maximum gives for a zero root into 0.0.
        violations[unsettled] = np.maximum(0.0, -lam[:, 0]) + 0.0
    nonneg = violations.max(axis=-1, initial=0.0)
    traces = _slot_traces(reduced)[owner, None]
    trace = np.abs(_e_traces(traces, xs) - 1.0).max(axis=-1, initial=0.0)
    total = np.zeros((len(xs), xs.shape[-1]))
    for i in range(xs.shape[1]):
        total += xs[:, i]
    sums = np.abs(total - e).max(axis=-1)
    limit = _ds_limit(max(n, m), tol)
    passes = np.max((nonneg, trace, sums), axis=0) <= limit
    return nonneg, trace, sums, limit, passes, points


def check_hd_membership(
    pencil: HyperbolicPencil, xs, tol: Tolerances = DEFAULT_TOL
) -> HdMembershipReport:
    """e-double stochasticity of a vector tuple: e-nonnegative, unit e-traces,
    sum e, each within ``limit``, ``core._ds_limit`` at max(n, m) (see
    ``_membership``)."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), pencil.m)
    require_finite(xs, "vectors")
    nonneg, trace, sums, limit, passes, _ = _membership(
        pencil._reduced[None], np.zeros(1, dtype=int), pencil.e, xs[None], tol
    )
    return HdMembershipReport(float(nonneg[0]), float(trace[0]), float(sums[0]), limit, bool(passes[0]))


def pencil_from_tuple(t, tol: Tolerances = DEFAULT_TOL) -> HyperbolicPencil:
    """The determinantal pencil of a matrix tuple with the all-ones direction."""
    return HyperbolicPencil(t.matrices, np.ones(t.n), tol)


def axis_vectors(n: int) -> list[np.ndarray]:
    return [np.eye(n)[i] for i in range(n)]


def _random_ds_matrices(k: int, n: int, rng) -> np.ndarray:
    """k random doubly stochastic matrices as one (k, n, n) stack, each the
    convex combination sum_c lam_c P_c of K = (n - 1)^2 + 1 permutation
    matrices, with no iteration.

    K is Caratheodory's number for the Birkhoff polytope (dimension
    (n - 1)^2), whose vertices are the permutation matrices, so every doubly
    stochastic matrix is such a combination.  The permutations are uniform,
    the argsorts of uniform keys, and the weights lam are Dirichlet(1), the
    normalized exponentials -log(1 - u) of uniform u.  All of them come from
    one ``random`` call of shape (k, K, n + 1), whose leading axis is the
    matrices, and each matrix is summed from its own draws alone, so a stack
    holds, bit for bit, the matrices that draws of consecutive parts of it
    would give.  Each row and column sums its K weights, so it is 1 up to
    the rounding of K terms.
    """
    terms = (n - 1) ** 2 + 1
    u = rng.random((k, terms, n + 1))
    weights = -np.log1p(-u[..., n])
    lam = weights / weights.sum(axis=-1, keepdims=True)
    # Entry (j, i, perm_jc(i)) of the stack adds lam[j, c], in order of c:
    # the flat index of that entry is the permutation plus (j n + i) n.
    cells = np.argsort(u[..., :n], axis=-1)
    cells += (np.arange(k)[:, None, None] * n + np.arange(n)) * n
    sums = np.bincount(cells.ravel(), np.repeat(lam.ravel(), n), k * n * n)
    return sums.reshape(k, n, n)


@dataclass(frozen=True)
class ConjectureExperimentReport:
    """No-counterexample report for the hyperbolic lower-bound conjecture."""

    n: int
    samples: int
    min_ratio: float
    bound: float
    violations: list


def conjecture_experiment(
    n: int, samples: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> ConjectureExperimentReport:
    """Sample e-doubly stochastic tuples and record min M_p / p(e).

    Members come from doubly stochastic matrix tuples (p(e) = 1) with the
    axis-vector tuple mixed by random doubly stochastic matrices, convex
    combinations of permutation matrices; mixing preserves membership, which
    is rechecked: a mixture that fails the recheck raises
    NumericalInconsistency, naming the mixture, its pencil and its three
    violations, since every mixture is e-doubly stochastic by construction.
    A ratio below n!/n^n by ``core._below``'s relative slack is recorded as
    a violation, not raised.

    Mixture i belongs to pencil i // ``_MIXTURES_PER_PENCIL``, and pencil k
    is ``pencil_from_tuple`` of ``random_ds_tuple(n, s_k)``, s_k the k-th
    seed of ``iter_seeds(seed)``; the mixing matrices come from
    ``make_rng(seed)``.  The tuple is drawn at ``ds_tol = 0``, so its
    scaling stops at the 4 n eps rounding floor of ``core._ds_limit`` and
    the reduced slots have unit traces to rounding; the membership recheck
    holds each mixture to that rule's verdict limit at ``tol``, which its
    error names.  The mixtures run in blocks of at most ``_BLOCK_MIXTURES``,
    a whole number of pencils.  A block's tuples come as one
    ``extremal._random_ds_stack``, their reduced slots A_i = L B_i L from one
    batched congruence, its mixtures from one ``_random_ds_matrices`` stack,
    their membership from one ``_membership`` pass, each mixture against its own pencil's slots
    (whose eigenvalues, one batched solve for the block, settle the
    nonnegativity of almost every point with no eigensolve of the point),
    and their ratios from one ``_discriminants`` call on their reduced
    points: D(L X_1 L, .., L X_n L) is det(L)^2 D(X_1, .., X_n) = M_p / p(e),
    so p(e) is never computed.
    The kernel's gate, n <= ``discriminant._GATE_POLARIZED``, is checked
    before any pencil is drawn.
    """
    _gate(n, _GATE_POLARIZED, "conjecture_experiment")
    bound = bapat_bound(n)
    rng = make_rng(seed)
    children = iter_seeds(seed)
    ratios = np.empty(samples)
    for first in range(0, samples, _BLOCK_MIXTURES):
        count = min(samples - first, _BLOCK_MIXTURES)
        owner = np.arange(count) // _MIXTURES_PER_PENCIL
        # pencil_from_tuple of each: the slots are exactly Hermitian already,
        # and every direction is the all-ones vector.
        mats = _random_ds_stack(n, list(islice(children, owner[-1] + 1)), replace(tol, ds_tol=0.0))
        reduced = _reduce(mats, mats.sum(1), tol)
        # The vectors of a mixture are its columns.
        xs = _random_ds_matrices(count, n, rng).swapaxes(-1, -2)
        *fields, limit, passes, points = _membership(reduced, owner, np.ones(n), xs, tol)
        if not passes.all():
            i = int(np.argmin(passes))
            nonneg, trace, sums = (float(f[i]) for f in fields)
            raise NumericalInconsistency(
                f"mixture {first + i} of pencil {(first + i) // _MIXTURES_PER_PENCIL} failed its membership "
                f"recheck: nonnegativity {nonneg:.3g}, e-trace {trace:.3g}, sum {sums:.3g} "
                f"against the limit {limit:.3g}"
            )
        ratios[first : first + count] = _discriminants(points)
    hits = np.flatnonzero(_below(ratios, bound))
    return ConjectureExperimentReport(
        n=n,
        samples=samples,
        min_ratio=float(ratios.min(initial=math.inf)),
        bound=bound,
        violations=[
            {"seed": seed, "pencil_index": int(i) // _MIXTURES_PER_PENCIL, "ratio": float(ratios[i])}
            for i in hits
        ],
    )
