"""Dense complex Hermitian linear algebra shared by every other module.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128, and a
tuple or pencil of them is one (k, n, n) stack.  Anything that claims to be
Hermitian goes through :func:`as_hermitian`, which takes one matrix or a
stack, rejects each matrix that is non-Hermitian beyond tolerance at its own
scale and then symmetrizes exactly, so downstream code may rely on
``A == A.conj().T`` holding bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np


class MixdiscError(Exception):
    """Base class for all library errors."""


class DimensionTooLarge(MixdiscError):
    """An operation was asked to run above its hard cost gate."""


class NotPositiveDefinite(MixdiscError):
    pass


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


def require_finite(a: np.ndarray, what: str = "matrix") -> None:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
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
    return float(np.max(np.abs(a))) if a.size else 0.0


def _eigh(a, vectors: bool = True):
    """``np.linalg.eigh`` (ascending) of a Hermitian matrix or (..., n, n) stack;
    with ``vectors`` False, the eigenvalues alone by ``np.linalg.eigvalsh``."""
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return solve(np.asarray(a, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise NonConvergence(f"Hermitian eigensolver failed: {exc}") from exc


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a unitary eigenvector matrix of Hermitian ``a``.

    Column k of the returned matrix is the eigenvector for eigenvalue k.
    """
    w, v = _eigh(a)
    return w[::-1].copy(), v[:, ::-1].copy()


def inv_sqrt_psd(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive definite L with L @ a @ L == I.

    Requires all eigenvalues of ``a`` to exceed ``psd_tol`` times the largest.
    One ``np.linalg.eigh`` call; L is summed over the eigenpairs in the
    descending order of ``eig_hermitian``.  The scaling loops pay this once
    per step.
    """
    w, v = eig_hermitian(a)
    if w.size == 0 or w[0] <= 0.0 or w[-1] <= tol.psd_tol * w[0]:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (eigenvalue range [{w[-1] if w.size else 0.0:.3e}, "
            f"{w[0] if w.size else 0.0:.3e}])"
        )
    l = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    l += l.conj().T
    l /= 2.0
    return l


def min_eigenvalue(a) -> float:
    w, _ = eig_hermitian(a)
    return float(w[-1])


def rank_psd(a, tol: Tolerances = DEFAULT_TOL):
    """Count of eigenvalues above rank_tol times the largest (0 for the zero matrix).

    ``a`` is one Hermitian matrix (an int is returned) or a stack (..., n, n)
    (an integer array of the stack's shape): one batched ``np.linalg.eigvalsh``
    call, eigenvalues only, which match the per-matrix calls bit for bit.
    """
    w = _eigh(a, vectors=False)
    top = w.max(axis=-1, initial=0.0, keepdims=True)
    ranks = np.count_nonzero(w > tol.rank_tol * top, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def psd_violation(a) -> float:
    """How far a Hermitian matrix (or the worst of a stack) is from PSD.

    That is max(0, -smallest eigenvalue).
    """
    return max(0.0, -float(np.linalg.eigvalsh(a).min()))


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
    """The first ``count`` seeds of ``iter_seeds(seed)``."""
    return list(itertools.islice(iter_seeds(seed), count))


def random_complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n matrix of independent standard complex Gaussians."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def random_psd(n: int, seed: int) -> np.ndarray:
    """G @ G* for a seeded complex Gaussian G; almost surely positive definite."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    g = random_complex_gaussian(n, make_rng(seed))
    return as_hermitian(g @ g.conj().T)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex_gaussian(n, rng)
    return (g + g.conj().T) / 2.0


# ---------------------------------------------------------------------------
# compensated accumulation

def fsum_complex(terms) -> complex:
    """Compensated sum of complex terms, real and imaginary parts separately."""
    a = np.asarray(terms, dtype=np.complex128).ravel()
    return complex(math.fsum(a.real), math.fsum(a.imag))
