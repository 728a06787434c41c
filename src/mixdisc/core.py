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
under ``_definite``.  ``is_e_nonnegative`` applies ``_psd`` to the roots,
with the largest |root| as the scale.  An absolute term remains in
``as_hermitian``'s floor.

One doubly stochastic rule, ``_ds_limit``, on unit-trace objects of
dimension n: a scaling loop stops at max(ds_tol, 4 n eps) (tuple scaling in
``capacity._scale_vector``, Pascal scaling in ``pascal._scale_kraus``), and
labels its stop by ``_ds_stop_reason``; every verdict accepts violations up
to max(ds_tol, 8 n eps) (``check_doubly_stochastic``, ``check_block_ds``,
hyperbolic membership and the trace preconditions of ``lemma36_family`` and
``dnp_family_value``).  Only this module reads ``ds_tol``.

``Tolerances`` holds the four settings of the package: ``hermitian_tol``,
``psd_tol``, ``rank_tol`` and ``ds_tol``.  The gradient stop of the Newton
solver is a constant of ``capacity``, ``_GRADIENT_TOL``, which no caller
sets.  Every failed internal cross-check raises ``NumericalInconsistency``.

One proven-bound rule, ``_below``: a value violates a bound the paper
proves (n!/n^n <= D <= Cap on doubly stochastic tuples, and its
corollaries) only when it falls below it by more than the relative slack
``_BOUND_SLACK``.

Randomness is one generator per sample: ``make_rng(seed)`` (Philox), with no
global state.  Every complex Gaussian of the package comes from
``random_complex_gaussian``, which draws a whole stack in one
``standard_normal`` call; a seeded Wishart matrix or n-tuple is ``_wishart``
of one generator.
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


class NumericalInconsistency(MixdiscError):
    """An internal cross-check (imaginary residue, dual-path agreement, the
    product of a decomposition's parts) failed."""


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

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v < 1.0) or not math.isfinite(v):
                raise ValueError(f"{f.name} must lie in [0, 1), got {v!r}")


DEFAULT_TOL = Tolerances()

# The machine epsilon, 2^-52: twice the unit round-off u = 2^-53.
_EPS = sys.float_info.epsilon


def _ds_limit(n: int, tol: Tolerances, stop: bool = False) -> float:
    """The one doubly stochastic limit of an object of dimension n: with
    ``stop``, a scaling loop's stop max(ds_tol, 4 n eps); else a verdict's
    limit max(ds_tol, 8 n eps).

    A doubly stochastic defect (a trace or slot sum minus 1 or I) is a sum
    of n terms, whose rounding a loop may never get under: a stop below
    4 n eps would run every draw to its step cap.  A verdict c n eps then
    adds to the stop what the checked object's own sums round on top of
    it.  A scaled tuple's trace and slot-sum violations are the loop's own
    defect, bit for bit, so they stay within 4 n eps, and its eigenvalues
    add about n eps to its PSD violation; ``check_block_ds`` reads rho
    assembled from the Kraus operators, not the loop's Gram sums; a
    hyperbolic mixture's e-trace adds the reduction L B_i L and the
    rounding of its mixing weights to its tuple's traces.  The worst
    violation measured at ds_tol = 0, in units of n eps, was 3.75 on
    ``random_ds_tuples`` draws (n = 2..6, seeds 0-29; 3.83 up to n = 10),
    3.22 on both Pascal samplers' draws (n = 2..4, seeds 0-19) and 5.0 on
    the e-traces of conjecture mixtures (n = 2, seeds 0-19, 200 mixtures
    each; at most 4.75 at n = 3..8).  So c = 8, twice the stop and 1.6
    times that worst case.  Above the floor the limit is ds_tol itself, and
    8 n eps is 3.6e-14 at the n = 20 gate, far below the default ds_tol:
    no default verdict or stop moves."""
    return max(tol.ds_tol, (4.0 if stop else 8.0) * n * _EPS)


def _ds_stop_reason(defect: float, tol: Tolerances) -> str:
    """Why a scaling loop stopped within ``_ds_limit(n, tol, stop=True)``:
    "ds_tol" for a defect within ds_tol, "roundoff" for one within the
    rounding floor alone."""
    return "ds_tol" if defect <= tol.ds_tol else "roundoff"


# Relative slack of every proven-bound verdict: see _below.
_BOUND_SLACK = 1e-7


def _below(value, bound):
    """The one proven-bound rule: whether ``value`` falls below ``bound`` by
    more than the relative slack, value < bound (1 - ``_BOUND_SLACK``),
    elementwise on arrays.

    Relative, so it means the same at every n and every scale: an absolute
    1e-6 is 88% of n!/n^n at n = 16, and below the rounding of a ratio near
    n^n/n! = 4.3e7 at n = 20.  Its readers: ``extremal.minimize_search``
    (``below_bound``), ``hyperbolic.conjecture_experiment`` (a violation),
    ``capacity.capacity_bound_report`` (``within``: Cap >= D and
    D >= (n!/n^n) Cap) and ``genaf.check_theorem52`` (``holds``: each
    slack's exponential, a ratio to its bound 1).  1e-7 is the tightest
    slack these verdicts used before, and far above the rounding measured
    at a bound: the sandwich ratios of 400 rotated J_19 and J_20 tuples,
    which sit on its upper side, are within 5.2e-13 relative of it.  A NaN
    value is below no bound, so the sandwich and the AF check refuse a NaN
    D or Cap before they apply this rule."""
    return value < bound * (1.0 - _BOUND_SLACK)


def require_finite(a: np.ndarray, what: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains NaN or infinity")


def _require_square(a: np.ndarray) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")


def as_hermitian(a, tol: float = DEFAULT_TOL.hermitian_tol) -> np.ndarray:
    """Validate Hermiticity within ``tol`` and symmetrize exactly.

    ``a`` is one square matrix or a stack (..., n, n).  Each matrix A_i is
    held to its own scale: its defect max|A_i - A_i^*| must not exceed
    ``tol * (1 + max|A_i|)``.  The result satisfies ``H[i, j] == conj(H[j, i])``
    exactly, since averaging with the conjugate transpose is symmetric in
    IEEE arithmetic.
    """
    a = np.asarray(a, dtype=np.complex128)
    _require_square(a)
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
    with ``vectors`` False, the eigenvalues alone by ``np.linalg.eigvalsh``.
    ValueError for a non-square stack; NonConvergence where LAPACK fails."""
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    a = np.asarray(a, dtype=np.complex128)
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        _require_square(a)
        raise NonConvergence(f"Hermitian eigensolver failed: {exc}") from exc  # pragma: no cover


def _one(outcomes):
    """The one outcome of a stack route called on a one-tuple stack: its
    result, or its exception raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    symmetrized; ``NotPositiveDefinite`` unless every M is ``_definite``.  An
    empty stack (0, n) gives an empty stack; a 0 x 0 M is refused."""
    if not (w.shape[-1] and (_definite(w, tol) if w.ndim == 1 else _definite(w, tol).all())):
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


def random_complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Independent standard complex Gaussians: one n x n matrix for an int n,
    else an array of ``shape`` (..., n, n).

    The one place a generator becomes complex Gaussians.  One
    ``standard_normal`` call fills (..., 2, n, n), the real then the
    imaginary part of each matrix in turn, so a stack reads, bit for bit, the
    stream of that many consecutive n x n draws.
    """
    shape = (shape, shape) if np.ndim(shape) == 0 else tuple(shape)
    z = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)


def _wishart(shape, seed: int) -> np.ndarray:
    """G @ G* for each matrix of ``random_complex_gaussian(shape,
    make_rng(seed))``, as BLAS returns it: Hermitian only up to rounding.

    One generator per sample: an int n is ``random_psd``'s matrix, and
    (n, n, n) is one Wishart n-tuple, the draw ``random_ds_tuples`` scales and
    ``gen-random --kind psd`` prints; the caller's ``as_hermitian``
    symmetrizes it.
    """
    if np.min(shape) < 1:
        raise ValueError("dimension must be >= 1")
    g = random_complex_gaussian(shape, make_rng(seed))
    return g @ g.conj().swapaxes(-1, -2)


def random_psd(n: int, seed: int) -> np.ndarray:
    """G @ G* for a seeded complex Gaussian G, symmetrized exactly; almost
    surely positive definite."""
    return as_hermitian(_wishart(n, seed))


# ---------------------------------------------------------------------------
# compensated accumulation

def fsum_complex(terms) -> complex:
    """Compensated sum of complex terms, real and imaginary parts separately,
    each read as Python floats (the bits of ``math.fsum`` over the array)."""
    a = np.asarray(terms, dtype=np.complex128).ravel()
    return complex(math.fsum(a.real.tolist()), math.fsum(a.imag.tolist()))
