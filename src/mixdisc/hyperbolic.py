"""Determinantal hyperbolic polynomials: roots, e-traces, and p-mixed values.

Only determinantal representations p(x) = det(sum x_i B_i) with a positive
definite direction pencil are supported.  A pencil is reduced once, by
congruence with L = (sum e_i B_i)^(-1/2), to the slots A_i = L B_i L; the
roots of p(x - lambda e) are then the eigenvalues of sum x_i A_i, so realness
is structural, and the e-trace is the linear form sum x_i tr A_i.

Membership checks take a whole stack of vector tuples through one batched
eigensolve.  :func:`conjecture_experiment` runs its pencils in blocks: one
block draws its doubly stochastic tuples with one ``random_ds_tuples`` call,
reduces their pencils with one batched congruence and draws its mixing
matrices as one stack, scaled doubly stochastic by guarded Newton steps;
it checks every mixture against its own pencil in one membership pass on
the reduced points and takes the ratios M_p / p(e) as the mixed
discriminants of those points, from one call of the centered kernel, with
the report, bit for bit, that those mixtures give one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SamplerExhausted,
    Tolerances,
    _ds_floor,
    _eigh,
    _inv_sqrt,
    _psd,
    as_hermitian,
    make_rng,
)
from .discriminant import _discriminants
from .extremal import bapat_bound, random_ds_tuples

_MIXTURES_PER_PENCIL = 50  # conjecture_experiment mixtures drawn per sampled pencil
# Mixtures per block of pencils in conjecture_experiment; bounds the block's
# membership points, (K, n, n, n) complex, and the one kernel call on its
# accepted mixtures: the kernel's byte budget bounds each tuple's chunk, and
# a stack of K tuples (n < 8) is one chunk of 2^(n-1) combinations per tuple.
_BLOCK_MIXTURES = 1000
# Cap on the guarded Newton steps of a mixing stack, which stops in about 5.
# The name, like the report's max_sinkhorn_sweeps field, which is part of the
# CLI's report, is kept from the plain sweeps those steps replaced.
_SINKHORN_MAX_SWEEPS = 200
_MAX_BARREN_PENCILS = 100  # consecutive pencils with no accepted mixture before giving up


class HyperbolicPencil:
    """p(x) = det(sum x_i B_i) with direction e such that sum e_i B_i > 0.

    ``matrices`` is one read-only complex (m, n, n) array whose slice
    ``matrices[i]`` is B_i; ``degree`` is n.  The constructor reduces the
    pencil once: ``_reduced[i]`` is A_i = L B_i L, L = (sum e_i B_i)^(-1/2),
    from which every root and e-trace is read.
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
        # NotPositiveDefinite (a PreconditionViolated) unless core._definite.
        self._reduced = _reduce(mats, self.at(e), tol)
        self.e = e

    def at(self, x) -> np.ndarray:
        return _pencil_points(self.matrices, self._vector(x))

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"point must be a real {self.m}-vector")
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
    passes: bool


def roots(pencil: HyperbolicPencil, x) -> RootVector:
    """All n roots of p(x - lambda e), descending.

    They are the eigenvalues of sum x_i A_i, A_i = L B_i L the pencil's
    reduced slots, hence real.  The residual compares their product, times
    p(e), against p(x) relatively.
    """
    w = _roots_ascending(pencil, x)[::-1].copy()
    # p(x - lam e) = det(B(x) - lam E) = det(E) * prod(eig - lam)
    p_x = pencil.value(x)
    scaled = float(np.prod(w)) * pencil.value(pencil.e)
    residual = abs(scaled - p_x) / (1.0 + abs(p_x))
    return RootVector(lam=w, residual=residual)


def trace_e(pencil: HyperbolicPencil, x) -> float:
    """Sum of the roots of p(x - lambda e); linear in x: sum x_i tr A_i."""
    return float(_e_traces(pencil._reduced, pencil._vector(x)))


def is_e_nonnegative(pencil: HyperbolicPencil, x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the roots of p(x - lambda e) pass the one PSD rule,
    ``core._psd``, with the largest |root| as the scale: the smallest root is
    at least -psd_tol times it, so scaling x by c > 0 changes no verdict."""
    lam = _roots_ascending(pencil, x)
    return bool(_psd(lam, max(-lam[0], lam[-1]), tol))


def _roots_ascending(pencil: HyperbolicPencil, x) -> np.ndarray:
    """The roots of p(x - lambda e), ascending: the eigenvalues of
    sum x_i A_i, from ``eigvalsh``."""
    return _eigh(_pencil_points(pencil._reduced, pencil._vector(x)), vectors=False)


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


def _e_traces(reduced: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The e-traces sum_j x_j tr A_j of the vectors ``xs`` (..., m), from
    reduced slots (m, n, n) or a stack of them (..., m, n, n) broadcast
    against the vectors.  Each tr A_j adds its diagonal in order, and the
    form is ``_pencil_points`` of the traces as 1 x 1 slots, so a vector's
    e-trace has the same bits in any stack."""
    diagonal = reduced.real.diagonal(0, -2, -1)
    traces = sum((diagonal[..., k] for k in range(1, diagonal.shape[-1])), diagonal[..., 0])
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
    return float(_discriminants(_pencil_points(pencil.matrices, xs)[None])[0])


def _membership(reduced, e, xs: np.ndarray, tol: Tolerances):
    """Membership of a stack (K, k, m) of K vector tuples: the (K,) arrays of
    the nonnegativity, e-trace and sum violations and of ``passes``, and the
    reduced points sum_j x_j A_j as a (K, k, n, n) stack.

    Every tuple is checked against one pencil's reduced slots (m, n, n), or
    tuple j against its own, given as the stack (K, 1, m, n, n); ``e`` is
    the direction (m,) they share.  The roots of every vector are the
    eigenvalues of its reduced point, from one batched ``eigvalsh``; its
    e-trace is ``_e_traces``, and the vectors of a tuple are added in order.
    """
    points = _pencil_points(reduced, xs)
    lam = _eigh(points, vectors=False)
    nonneg = np.maximum(0.0, -lam[..., 0]).max(axis=-1, initial=0.0)
    trace = np.abs(_e_traces(reduced, xs) - 1.0).max(axis=-1, initial=0.0)
    total = np.zeros((len(xs), xs.shape[-1]))
    for i in range(xs.shape[1]):
        total += xs[:, i]
    sums = np.abs(total - e).max(axis=-1)
    passes = (nonneg <= tol.ds_tol) & (trace <= tol.ds_tol) & (sums <= tol.ds_tol)
    return nonneg, trace, sums, passes, points


def check_hd_membership(
    pencil: HyperbolicPencil, xs, tol: Tolerances = DEFAULT_TOL
) -> HdMembershipReport:
    """e-double stochasticity of a vector tuple: e-nonnegative, unit e-traces, sum e."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), pencil.m)
    nonneg, trace, sums, passes, _ = _membership(pencil._reduced, pencil.e, xs[None], tol)
    return HdMembershipReport(float(nonneg[0]), float(trace[0]), float(sums[0]), bool(passes[0]))


def pencil_from_tuple(t, tol: Tolerances = DEFAULT_TOL) -> HyperbolicPencil:
    """The determinantal pencil of a matrix tuple with the all-ones direction."""
    return HyperbolicPencil(t.matrices, np.ones(t.n), tol)


def axis_vectors(n: int) -> list[np.ndarray]:
    return [np.eye(n)[i] for i in range(n)]


def _random_ds_matrices(k: int, n: int, rng, tol: Tolerances) -> tuple[np.ndarray, int]:
    """k positive random matrices K, scaled doubly stochastic as one (k, n, n)
    stack by guarded Newton steps, and the number of steps taken.

    The k draws come from one ``standard_normal`` call, which reads the
    stream that calls for consecutive parts of them would.  Each matrix
    keeps row log-scalings x, and its iterate is M = diag(e^x) K diag(1/c),
    c the column sums of diag(e^x) K, so the columns sum to 1 after every
    step.  With r the row sums of M, a step has two candidates: the plain
    Sinkhorn sweep x - log r, and the Newton point
    x - (diag r - M M^T + 11^T/n)^(-1) (r - 1) on the potential
    psi(x) = sum_j log c_j - sum_i x_i, whose gradient is r - 1 and which
    is constant along x + t1 (Brauer, Clason, Lorenz and Wirth,
    arXiv:1710.06635).  As in ``capacity._scale_vector``, a potential
    guard picks: a matrix takes its Newton point where psi there is no
    larger than after its plain sweep, up to the rounding of psi's change;
    a plain sweep never raises psi, so psi falls, to rounding, along the
    steps.  The candidates of the whole stack come from one batched solve.
    The steps stop once every row sum of the stack is within 1e-4
    ``ds_tol`` of 1, but never less than 4 n eps, the rounding of a row sum,
    or after ``_SINKHORN_MAX_SWEEPS``: about 5 steps where plain sweeps
    took 40 to 121 (200 matrices, n = 3 and 4, seeds 0-59).
    The stack stops as a whole, so a slice is not, bit for bit, what the
    same draw scaled on its own would give.
    """
    kern = np.exp(rng.standard_normal((k, n, n)))
    rounding = _ds_floor(n)
    # The stop is never below the rounding of a row sum, which a stack may
    # not get under: a tinier ds_tol would run every stack to the cap.
    stop = max(1e-4 * tol.ds_tol, rounding)
    # Sums over the length-n axes are matrix-vector products on reshapes,
    # which cost far less than numpy's reductions over a short axis.
    ones = np.ones(n)
    # Row 2j of the steps is matrix j's Newton step, row 2j + 1 its sweep.
    odds = np.arange(1, 2 * k, 2)
    x = np.zeros((k, n))
    steps = 0
    while True:
        ex = np.exp(x)[:, None]
        m = ex.swapaxes(1, 2) * kern / (ex @ kern)
        rows = (m.reshape(-1, n) @ ones).reshape(k, n)
        if steps == _SINKHORN_MAX_SWEEPS or np.abs(rows - 1.0).max() <= stop:
            return m, steps
        hess = rows[..., None] * np.eye(n) - m @ m.swapaxes(1, 2) + 1.0 / n
        newton = np.linalg.solve(hess, (rows - 1.0)[..., None])[..., 0]
        d = np.stack([newton, np.log(rows)], axis=1)
        # psi(x - d) - psi(x) = sum_j log1p(u_j) + sum_i d_i, u = (e^-d - 1) M,
        # to the rounding of the change rather than of psi: at the minimum,
        # where psi is flat, psi's own rounding would admit steps that move
        # the row sums by its square root.  A Newton step far enough out
        # overflows e^-d; its change is then inf or NaN, which only rejects it.
        with np.errstate(all="ignore"):
            log_u = np.log1p(np.expm1(-d) @ m)
            change = ((log_u + d).reshape(-1, n) @ ones).reshape(k, 2)
        size = (abs(log_u[:, 1]) + abs(d[:, 1])) @ ones
        pick = odds - (change[:, 0] <= change[:, 1] + rounding * size)
        x = x - d.reshape(-1, n).take(pick, 0)
        steps += 1


@dataclass(frozen=True)
class ConjectureExperimentReport:
    """No-counterexample report for the hyperbolic lower-bound conjecture."""

    n: int
    samples: int
    min_ratio: float
    bound: float
    violations: list
    rejection_rate: float
    max_sinkhorn_sweeps: int  # steps, over the mixing stacks; _SINKHORN_MAX_SWEEPS means the cap was hit


def conjecture_experiment(
    n: int, samples: int, seed: int, tol: Tolerances = DEFAULT_TOL
) -> ConjectureExperimentReport:
    """Sample e-doubly stochastic tuples and record min M_p / p(e).

    Members come from doubly stochastic matrix tuples (p(e) = 1) with the
    axis-vector tuple mixed by random doubly stochastic matrices; mixing
    preserves membership, which is rechecked and rejected on failure.
    A ratio below n!/n^n - 1e-6 is recorded as a violation, not raised.

    Pencil k is ``pencil_from_tuple`` of ``random_ds_tuple(n, seed + 7919 k)``
    and takes up to ``_MIXTURES_PER_PENCIL`` mixtures.  The pencils run in
    blocks: a block is the pencils that the samples still needed take, at
    most ``_BLOCK_MIXTURES`` mixtures, so that each pencil but the last takes
    ``_MIXTURES_PER_PENCIL``.  Its tuples come from one ``random_ds_tuples``
    call, their reduced slots A_i = L B_i L from one batched congruence,
    its mixtures from one ``_random_ds_matrices`` stack, their membership
    from one ``_membership`` pass on the reduced points, each mixture
    against its own pencil, and the ratios of the accepted ones from one
    ``_discriminants`` call on those points: D(L X_1 L, .., L X_n L) is
    det(L)^2 D(X_1, .., X_n) = M_p / p(e), so p(e) is never computed.
    Ratios, violations and the barren-pencil rule then run in pencil order,
    and a block whose mixtures were rejected leaves the rest to the next
    block.  ``max_sinkhorn_sweeps`` is the most guarded Newton steps any
    block's stack took (about 5; the name dates from plain Sinkhorn sweeps);
    at ``_SINKHORN_MAX_SWEEPS`` a stack stopped at the cap, not at its
    row-sum test, and its mixtures may fail the membership recheck.
    SamplerExhausted after ``_MAX_BARREN_PENCILS`` pencils in a row accept
    no mixture.
    """
    bound = bapat_bound(n)
    rng = make_rng(seed)
    min_ratio = math.inf
    violations = []
    rejected = 0
    done = 0
    pencil_index = 0
    max_sweeps = 0
    last_hit = -1  # the last pencil that accepted a mixture
    while done < samples:
        need = min(samples - done, _BLOCK_MIXTURES)
        counts = [_MIXTURES_PER_PENCIL] * (need // _MIXTURES_PER_PENCIL)
        if need % _MIXTURES_PER_PENCIL:
            counts.append(need % _MIXTURES_PER_PENCIL)
        block = range(pencil_index, pencil_index + len(counts))
        tuples = random_ds_tuples(n, [seed + 7919 * k for k in block], tol)
        # pencil_from_tuple of each: the slots are exactly Hermitian already,
        # and every direction is the all-ones vector.
        mats = np.array([t.matrices for t in tuples])
        reduced = _reduce(mats, mats.sum(1), tol)
        mixes, sweeps = _random_ds_matrices(need, n, rng, tol)
        max_sweeps = max(max_sweeps, sweeps)
        owner = np.repeat(np.arange(len(counts)), counts)
        # The vectors of a mixture are its columns.
        *_, passes, points = _membership(
            reduced[owner, None], np.ones(n), mixes.swapaxes(-1, -2), tol
        )
        # D(L X_1 L, .., L X_n L) = det(L)^2 D(X_1, .., X_n) = M_p / p(e).
        ratios = np.zeros(need)
        if passes.any():
            ratios[passes] = _discriminants(points[passes])
        first = 0
        for count in counts:
            hits = passes[first : first + count]
            rejected += count - int(np.count_nonzero(hits))
            if hits.any():
                last_hit = pencil_index
                for ratio in ratios[first : first + count][hits].tolist():
                    done += 1
                    if ratio < min_ratio:
                        min_ratio = ratio
                    if ratio < bound - 1e-6:
                        violations.append(
                            {"seed": seed, "pencil_index": pencil_index, "ratio": ratio}
                        )
            elif pencil_index - last_hit == _MAX_BARREN_PENCILS:
                raise SamplerExhausted(
                    f"{_MAX_BARREN_PENCILS} pencils in a row accepted no mixture"
                )
            first += count
            pencil_index += 1
    return ConjectureExperimentReport(
        n=n,
        samples=done,
        min_ratio=min_ratio,
        bound=bound,
        violations=violations,
        rejection_rate=rejected / max(1, done + rejected),
        max_sinkhorn_sweeps=max_sweeps,
    )
