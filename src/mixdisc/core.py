"""Dense complex Hermitian linear algebra shared by every other module.

Matrices are complex128 ``numpy.ndarray`` objects; a tuple or pencil of them
is one (k, n, n) stack.  :func:`as_hermitian` validates one matrix or a stack,
each matrix at its own scale, and symmetrizes exactly, so downstream code may
rely on ``A == A.conj().T`` bit for bit.

Three spectral rules, each relative to the scale of the object checked, so
that scaling the input by c > 0 changes no verdict: PSD (``_psd``: smallest
eigenvalue >= -psd_tol max|entry| of the matrix, stack or tuple), positive
definite (``_definite``: largest eigenvalue > 0, smallest > psd_tol times it)
and rank (``rank_psd``: eigenvalues above rank_tol times the largest).  Only
this module reads ``psd_tol``.  Every M^(-1/2) (tuple and Pascal scaling, the
pencil reduction) is ``_inv_sqrt`` of one ``_eigh`` call's ascending eigenpairs,
under ``_definite``.  Absolute terms remain in ``as_hermitian``'s floor and
the ``ds_tol`` reports on unit-trace objects (``check_doubly_stochastic``,
``check_block_ds``, hyperbolic membership); ``is_e_nonnegative`` applies
``_psd`` to the roots, with the largest |root| as the scale.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np


class MixdiscError(Exception):
    """Base class for all library errors."""


class DimensionTooLarge(MixdiscError):
    """An operation was asked to run above its hard cost gate."""


def _gate(n: int, limit: int, what: str) -> None:
    """The one dimension gate: DimensionTooLarge when ``n`` exceeds ``limit``."""
    if n > limit:
        raise DimensionTooLarge(f"{what} is gated at n <= {limit}, got n = {n}")


class NotHermitian(MixdiscError):
    pass


class NotUnitary(MixdiscError):
    pass


class NotDoublyStochastic(MixdiscError):
    pass


class NotIndecomposable(MixdiscError):
    pass


class SingularPencil(MixdiscError):
    """det(sum x_i A_i) collapsed below 1e-300; the infimum is ~0."""


class SamplerExhausted(MixdiscError):
    pass


class PreconditionViolated(MixdiscError):
    pass


class NotPositiveDefinite(PreconditionViolated):
    pass


class InvalidWeight(MixdiscError):
    pass


class TermNotPsd(MixdiscError):
    pass


class DecompositionInconsistent(MixdiscError):
    """Rank thresholding produced parts whose product does not match."""


class NumericalInconsistency(MixdiscError):
    """An internal cross-check (imaginary residue, dual-path agreement) failed."""


class NonConvergence(MixdiscError):
    """Iteration cap hit.  ``result`` carries the best iterate, if any."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds, all strictly below 1.

    Defaults target double-precision desk scale (n <= 12).
    """

    hermitian_tol: float = 1e-10
    psd_tol: float = 1e-9
    rank_tol: float = 1e-9
    ds_tol: float = 1e-8
    opt_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v < 1.0) or not math.isfinite(v):
                raise ValueError(f"{f.name} must lie in [0, 1), got {v!r}")


DEFAULT_TOL = Tolerances()

# The machine epsilon, 2^-52: twice the unit round-off u = 2^-53.
_EPS = sys.float_info.epsilon


def _ds_floor(n: int) -> float:
    """4 n eps, the rounding of a doubly stochastic defect (sums of n terms):
    the least stop a scaling loop is held to, as it may never get under it."""
    return 4 * n * _EPS


def require_finite(a: np.ndarray, what: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains NaN or infinity")


def as_hermitian(a, tol: float = DEFAULT_TOL.hermitian_tol) -> np.ndarray:
    """Validate Hermiticity within ``tol`` and symmetrize exactly.

    ``a`` is one square matrix or a stack (..., n, n).  Each matrix A_i is
    held to its own scale: its defect max|A_i - A_i^*| must not exceed
    ``tol * (1 + max|A_i|)``.  The result satisfies ``H[i, j] == conj(H[j, i])``
    exactly, since averaging with the conjugate transpose is symmetric in
    IEEE arithmetic.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    require_finite(a)
    ah = a.conj().swapaxes(-1, -2)
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(a - ah).max(axis=(-2, -1), initial=0.0)
    if np.any(defect > tol * scale):
        raise NotHermitian(f"Hermiticity defect {np.max(defect):.3e} exceeds tolerance")
    return (a + ah) / 2.0


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _eigh(a, vectors: bool = True):
    """``np.linalg.eigh`` (ascending) of a Hermitian matrix or (..., n, n) stack;
    with ``vectors`` False, the eigenvalues alone by ``np.linalg.eigvalsh``."""
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return solve(np.asarray(a, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise NonConvergence(f"Hermitian eigensolver failed: {exc}") from exc


def _definite(w, tol: Tolerances):
    """The one definiteness rule (and M^(-1/2)'s), on ascending eigenvalues w
    (..., n): the largest is positive and the smallest exceeds psd_tol times it.

    One comparison decides both, since psd_tol < 1 and the smallest is at
    most the largest: where the largest is not positive, the smallest is at
    most psd_tol times it.  A NaN fails it.  One nonempty vector w gives a
    bool from a float comparison, which costs far less than numpy's 0-d one;
    a stack gives a bool array."""
    if w.ndim == 1:
        return float(w[0]) > tol.psd_tol * float(w[-1])
    return w[..., 0] > tol.psd_tol * w[..., -1]


def _psd(w, scale, tol: Tolerances):
    """The one PSD rule, on ascending eigenvalues w (..., n) of a Hermitian
    matrix or stack whose largest |entry| is ``scale`` (broadcast against
    w[..., 0]): the smallest is at least -psd_tol times ``scale``."""
    return w[..., 0] >= -tol.psd_tol * scale


def _inv_sqrt(w, v, tol: Tolerances) -> np.ndarray:
    """M^(-1/2) = V diag(w^(-1/2)) V* from the ascending eigenpairs (w, V) of a
    Hermitian M, or of each M of a stack (w (..., n), V (..., n, n)), not
    symmetrized; ``NotPositiveDefinite`` unless every M is ``_definite``."""
    ok = _definite(w, tol) if w.size else False
    if not (ok if w.ndim == 1 else ok.all()):
        raise NotPositiveDefinite(f"matrix is not positive definite (eigenvalues {w})")
    return (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def inv_sqrt_psd(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive definite L with L @ a @ L == I: ``_inv_sqrt`` of the
    eigenpairs of one ``_eigh`` call, symmetrized exactly."""
    l = _inv_sqrt(*_eigh(a), tol)
    return (l + l.conj().T) / 2.0


def rank_psd(a, tol: Tolerances = DEFAULT_TOL):
    """Count of eigenvalues above rank_tol times the largest (0 for the zero matrix).

    ``a`` is one Hermitian matrix (an int is returned) or a stack (..., n, n)
    (an integer array of the stack's shape): one batched ``np.linalg.eigvalsh``
    call, eigenvalues only, which match the per-matrix calls bit for bit.
    """
    ranks = _rank_of_eigenvalues(_eigh(a, vectors=False), tol)
    return int(ranks) if ranks.ndim == 0 else ranks


def _rank_of_eigenvalues(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The ranks ``rank_psd`` counts, from the eigenvalues (..., n) of a stack."""
    top = w.max(axis=-1, initial=0.0, keepdims=True)
    return np.count_nonzero(w > tol.rank_tol * top, axis=-1)


def psd_violation(a) -> float:
    """How far a Hermitian matrix (or the worst of a stack) is from PSD.

    That is max(0, -smallest eigenvalue), from eigenvalues only.
    """
    return max(0.0, -float(_eigh(a, vectors=False).min()))


# ---------------------------------------------------------------------------
# randomness: a single counter-based generator family, no global state

def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based (Philox) generator; deterministic across platforms."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def iter_seeds(seed: int) -> Iterator[int]:
    """Independent child seeds of one parent seed, derived one at a time.

    ``SeedSequence.spawn(1)`` per child yields the same children as one
    ``spawn(count)``, so the k-th seed is the same however many are drawn.
    """
    parent = np.random.SeedSequence(seed)
    while True:
        yield int(parent.spawn(1)[0].generate_state(1)[0])


def spawn_seeds(seed: int, count: int) -> list[int]:
    """The first ``count`` seeds of ``iter_seeds(seed)``, from one
    ``SeedSequence.spawn(count)``."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def random_complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n matrix of independent standard complex Gaussians."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _gram(n: int, seed: int) -> np.ndarray:
    """G @ G* for a seeded complex Gaussian G, as BLAS returns it: Hermitian
    only up to rounding.  A caller that stacks several into one
    ``MatrixTuple`` lets that one ``as_hermitian`` call symmetrize them."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    g = random_complex_gaussian(n, make_rng(seed))
    return g @ g.conj().T


def random_psd(n: int, seed: int) -> np.ndarray:
    """G @ G* for a seeded complex Gaussian G, symmetrized exactly; almost
    surely positive definite."""
    return as_hermitian(_gram(n, seed))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex_gaussian(n, rng)
    return (g + g.conj().T) / 2.0


# ---------------------------------------------------------------------------
# compensated accumulation

def fsum_complex(terms) -> complex:
    """Compensated sum of complex terms, real and imaginary parts separately,
    each read as Python floats (the bits of ``math.fsum`` over the array)."""
    a = np.asarray(terms, dtype=np.complex128).ravel()
    return complex(math.fsum(a.real.tolist()), math.fsum(a.imag.tolist()))
