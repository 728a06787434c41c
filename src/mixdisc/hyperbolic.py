"""Determinantal hyperbolic polynomials: roots, e-traces, and p-mixed values.

Only determinantal representations p(x) = det(sum x_i B_i) with a positive
definite direction pencil are supported; for those, root extraction reduces
to a single Hermitian eigenproblem via congruence, so realness is structural.

Membership checks take a whole stack of vector tuples through one batched
eigensolve; :func:`conjecture_experiment` checks the mixtures of one pencil
together and evaluates the accepted ones with one call of the centered
kernel, with the same report, bit for bit, as one mixture at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    PreconditionViolated,
    Tolerances,
    _eigh,
    as_hermitian,
    inv_sqrt_psd,
    make_rng,
    min_eigenvalue,
)
from .discriminant import _as_real, _polarized_raw
from .extremal import bapat_bound, random_ds_tuple

_MIXTURES_PER_PENCIL = 50  # conjecture_experiment mixtures drawn per sampled pencil
_SINKHORN_SWEEPS = 200  # row and column normalizations of a random DS matrix


class HyperbolicPencil:
    """p(x) = det(sum x_i B_i) with direction e such that sum e_i B_i > 0.

    ``matrices`` is one read-only complex (m, n, n) array whose slice
    ``matrices[i]`` is B_i; ``degree`` is n.
    """

    __slots__ = ("m", "degree", "matrices", "e", "_reducer")

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
        pencil_at_e = self.at(e)
        if min_eigenvalue(pencil_at_e) <= tol.psd_tol * (
            1.0 + float(np.max(np.abs(pencil_at_e)))
        ):
            raise PreconditionViolated("sum e_i B_i must be positive definite")
        self.e = e
        self._reducer = inv_sqrt_psd(pencil_at_e, tol)

    def at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"point must be a real {self.m}-vector")
        return _pencil_points(self, x)

    def value(self, x) -> float:
        """p(x) = det(sum x_i B_i); real for real x and a Hermitian pencil."""
        return float(np.linalg.det(self.at(x)).real)


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
    passes: bool


def roots(pencil: HyperbolicPencil, x) -> RootVector:
    """All n roots of p(x - lambda e), descending.

    They are the eigenvalues of L B(x) L with L = (sum e_i B_i)^(-1/2), hence
    real.  The residual compares their product against p(x) relatively.
    """
    w = _roots_ascending(pencil, pencil.at(x))[::-1].copy()
    # p(x - lam e) = det(B(x) - lam E) = det(E) * prod(eig - lam)
    p_x = pencil.value(x)
    scaled = float(np.prod(w)) * pencil.value(pencil.e)
    residual = abs(scaled - p_x) / (1.0 + abs(p_x))
    return RootVector(lam=w, residual=residual)


def trace_e(pencil: HyperbolicPencil, x) -> float:
    """Sum of the roots of p(x - lambda e); linear in x."""
    return math.fsum(_roots_ascending(pencil, pencil.at(x)))


def is_e_nonnegative(pencil: HyperbolicPencil, x, tol: float = DEFAULT_TOL.psd_tol) -> bool:
    """Whether the smallest root of p(x - lambda e) is >= -tol."""
    return float(_roots_ascending(pencil, pencil.at(x))[0]) >= -tol


def _roots_ascending(pencil: HyperbolicPencil, points: np.ndarray) -> np.ndarray:
    """The roots of p(x - lambda e), ascending, for the points B(x) of a stack
    (..., n, n): the eigenvalues of L B(x) L from one batched ``eigvalsh``."""
    l = pencil._reducer
    return _eigh(l @ points @ l, vectors=False)


def _pencil_points(pencil: HyperbolicPencil, xs: np.ndarray) -> np.ndarray:
    """B(x) = sum_j x_j B_j for every real m-vector of ``xs`` (..., m)."""
    return (xs[..., :, None, None] * pencil.matrices).sum(-3)


def mixed_value(pencil: HyperbolicPencil, xs) -> float:
    """p-mixed value of n vectors: the mixed discriminant of their pencil matrices.

    p(sum t_i x_i) = det(sum t_i B(x_i)), so M_p(x_1,..,x_n) is
    D(B(x_1),..,B(x_n)), evaluated by the centered polarization kernel.
    """
    xs = np.asarray(xs, dtype=float)
    n = pencil.degree
    if xs.shape != (n, pencil.m):
        raise ValueError(f"need exactly {n} real {pencil.m}-vectors (the degree of p)")
    return _as_real(_polarized_raw(_pencil_points(pencil, xs[None]))[0])


def _membership(pencil: HyperbolicPencil, xs: np.ndarray, tol: Tolerances):
    """Membership of a stack (K, k, m) of K vector tuples: the (K,) arrays of
    the nonnegativity, e-trace and sum violations and of ``passes``, and the
    points B(x) as a (K, k, n, n) stack.

    The roots of every vector come from one :func:`_roots_ascending` call;
    each root vector is summed with ``math.fsum`` and the vectors of a tuple
    are added in order.
    """
    points = _pencil_points(pencil, xs)
    lam = _roots_ascending(pencil, points)
    nonneg = np.maximum(0.0, -lam[..., 0]).max(axis=-1, initial=0.0)
    traces = np.array([math.fsum(r) for r in lam.reshape(-1, lam.shape[-1]).tolist()])
    trace = np.abs(traces.reshape(xs.shape[:2]) - 1.0).max(axis=-1, initial=0.0)
    total = np.zeros((len(xs), pencil.m))
    for i in range(xs.shape[1]):
        total += xs[:, i]
    sums = np.abs(total - pencil.e).max(axis=-1)
    passes = (nonneg <= tol.ds_tol) & (trace <= tol.ds_tol) & (sums <= tol.ds_tol)
    return nonneg, trace, sums, passes, points


def check_hd_membership(
    pencil: HyperbolicPencil, xs, tol: Tolerances = DEFAULT_TOL
) -> HdMembershipReport:
    """e-double stochasticity of a vector tuple: e-nonnegative, unit e-traces, sum e."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), pencil.m)
    nonneg, trace, sums, passes, _ = _membership(pencil, xs[None], tol)
    return HdMembershipReport(float(nonneg[0]), float(trace[0]), float(sums[0]), bool(passes[0]))


def pencil_from_tuple(t, tol: Tolerances = DEFAULT_TOL) -> HyperbolicPencil:
    """The determinantal pencil of a matrix tuple with the all-ones direction."""
    return HyperbolicPencil(t.matrices, np.ones(t.n), tol)


def axis_vectors(n: int) -> list[np.ndarray]:
    return [np.eye(n)[i] for i in range(n)]


def _random_ds_matrices(k: int, n: int, rng) -> np.ndarray:
    """k positive random matrices, Sinkhorn-normalized as one (k, n, n) stack.

    Each slice has rows and columns summing to 1 and equals what the same
    draws would give normalized one matrix at a time.
    """
    m = np.exp(rng.standard_normal((k, n, n)))
    for _ in range(_SINKHORN_SWEEPS):
        m /= m.sum(axis=-1, keepdims=True)
        m /= m.sum(axis=-2, keepdims=True)
    return m


@dataclass(frozen=True)
class ConjectureExperimentReport:
    """No-counterexample report for the hyperbolic lower-bound conjecture."""

    n: int
    samples: int
    min_ratio: float
    bound: float
    violations: list
    rejection_rate: float


def conjecture_experiment(
    n: int, samples: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> ConjectureExperimentReport:
    """Sample e-doubly stochastic tuples and record min M_p / p(e).

    Members come from doubly stochastic matrix tuples (p(e) = 1) with the
    axis-vector tuple mixed by random doubly stochastic matrices; mixing
    preserves membership, which is rechecked and rejected on failure.
    A ratio below n!/n^n - 1e-6 is recorded as a violation, not raised.
    The up to ``_MIXTURES_PER_PENCIL`` mixtures of a pencil are checked as
    one stack, and p(e) is computed once per pencil.
    """
    bound = bapat_bound(n)
    rng = make_rng(seed)
    min_ratio = math.inf
    violations = []
    rejected = 0
    done = 0
    pencil_index = 0
    while done < samples:
        t = random_ds_tuple(n, seed + 7919 * pencil_index, tol)
        pencil = pencil_from_tuple(t, tol)
        p_e = pencil.value(pencil.e)
        mixes = _random_ds_matrices(min(_MIXTURES_PER_PENCIL, samples - done), n, rng)
        # The vectors of a mixture are its columns.
        *_, passes, points = _membership(pencil, mixes.swapaxes(-1, -2), tol)
        rejected += int(np.count_nonzero(~passes))
        if passes.any():
            for ratio in (_as_real(_polarized_raw(points[passes])) / p_e).tolist():
                done += 1
                if ratio < min_ratio:
                    min_ratio = ratio
                if ratio < bound - 1e-6:
                    violations.append(
                        {"seed": seed, "pencil_index": pencil_index, "ratio": ratio}
                    )
        pencil_index += 1
    return ConjectureExperimentReport(
        n=n,
        samples=done,
        min_ratio=min_ratio,
        bound=bound,
        violations=violations,
        rejection_rate=rejected / max(1, done + rejected),
    )
