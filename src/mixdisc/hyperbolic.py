"""Determinantal hyperbolic polynomials: roots, e-traces, and p-mixed values.

Only determinantal representations p(x) = det(sum x_i B_i) with a positive
definite direction pencil are supported; for those, root extraction reduces
to a single Hermitian eigenproblem via congruence, so realness is structural.

Membership checks take a whole stack of vector tuples through one batched
eigensolve.  :func:`conjecture_experiment` runs its pencils in blocks: one
block draws its doubly stochastic tuples with one ``random_ds_tuples`` call
and its mixing matrices as one stack, scaled doubly stochastic by guarded
Newton steps, checks every mixture against its own pencil in one membership
pass and evaluates the accepted ones with one call of the centered kernel,
with the report, bit for bit, that those mixtures give one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SamplerExhausted,
    Tolerances,
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
# membership points, (K, n, n, n) complex, and its kernel chunks.
_BLOCK_MIXTURES = 1000
# Cap on the guarded Newton steps of a mixing stack, which stops in about 5.
# The name, like the report's max_sinkhorn_sweeps field, which is part of the
# CLI's report, is kept from the plain sweeps those steps replaced.
_SINKHORN_MAX_SWEEPS = 200
_MAX_BARREN_PENCILS = 100  # consecutive pencils with no accepted mixture before giving up


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
        # NotPositiveDefinite (a PreconditionViolated) unless core._definite.
        self._reducer = _inv_sqrt(*_eigh(self.at(e)), tol)
        self.e = e

    def at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"point must be a real {self.m}-vector")
        return _pencil_points(self.matrices, x)

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
    w = _roots_ascending(pencil._reducer, pencil.at(x))[::-1].copy()
    # p(x - lam e) = det(B(x) - lam E) = det(E) * prod(eig - lam)
    p_x = pencil.value(x)
    scaled = float(np.prod(w)) * pencil.value(pencil.e)
    residual = abs(scaled - p_x) / (1.0 + abs(p_x))
    return RootVector(lam=w, residual=residual)


def trace_e(pencil: HyperbolicPencil, x) -> float:
    """Sum of the roots of p(x - lambda e); linear in x."""
    return math.fsum(_roots_ascending(pencil._reducer, pencil.at(x)).tolist())


def is_e_nonnegative(pencil: HyperbolicPencil, x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the roots of p(x - lambda e) pass the one PSD rule,
    ``core._psd``, with the largest |root| as the scale: the smallest root is
    at least -psd_tol times it, so scaling x by c > 0 changes no verdict."""
    lam = _roots_ascending(pencil._reducer, pencil.at(x))
    return bool(_psd(lam, max(-lam[0], lam[-1]), tol))


def _roots_ascending(l: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The roots of p(x - lambda e), ascending, for the points B(x) of a stack
    (..., n, n): the eigenvalues of L B(x) L from one batched ``eigvalsh``,
    L = (sum e_i B_i)^(-1/2) the pencil's reducer (n, n), or a stack of
    reducers broadcast against the points."""
    return _eigh(l @ points @ l, vectors=False)


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


def mixed_value(pencil: HyperbolicPencil, xs) -> float:
    """p-mixed value of n vectors: the mixed discriminant of their pencil matrices.

    p(sum t_i x_i) = det(sum t_i B(x_i)), so M_p(x_1,..,x_n) is
    D(B(x_1),..,B(x_n)), evaluated by the centered polarization kernel.
    """
    xs = np.asarray(xs, dtype=float)
    n = pencil.degree
    if xs.shape != (n, pencil.m):
        raise ValueError(f"need exactly {n} real {pencil.m}-vectors (the degree of p)")
    return float(_discriminants(_pencil_points(pencil.matrices, xs)[None])[0])


def _membership(matrices, reducer, e, xs: np.ndarray, tol: Tolerances):
    """Membership of a stack (K, k, m) of K vector tuples: the (K,) arrays of
    the nonnegativity, e-trace and sum violations and of ``passes``, and the
    points B(x) as a (K, k, n, n) stack.

    Every tuple is checked against one pencil's matrices (m, n, n) and
    reducer (n, n), or tuple j against its own, given as the stacks
    (K, 1, m, n, n) and (K, 1, n, n); ``e`` is the direction (m,) they
    share.  The roots of every vector come from one :func:`_roots_ascending`
    call; each root vector is summed with ``math.fsum`` and the vectors of a
    tuple are added in order.
    """
    points = _pencil_points(matrices, xs)
    lam = _roots_ascending(reducer, points)
    nonneg = np.maximum(0.0, -lam[..., 0]).max(axis=-1, initial=0.0)
    traces = np.array([math.fsum(r) for r in lam.reshape(-1, lam.shape[-1]).tolist()])
    trace = np.abs(traces.reshape(xs.shape[:2]) - 1.0).max(axis=-1, initial=0.0)
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
    nonneg, trace, sums, passes, _ = _membership(
        pencil.matrices, pencil._reducer, pencil.e, xs[None], tol
    )
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
    ``ds_tol`` of 1, or after ``_SINKHORN_MAX_SWEEPS``: about 5 steps where
    plain sweeps took 40 to 121 (200 matrices, n = 3 and 4, seeds 0-59).
    The stack stops as a whole, so a slice is not, bit for bit, what the
    same draw scaled on its own would give.
    """
    kern = np.exp(rng.standard_normal((k, n, n)))
    stop = 1e-4 * tol.ds_tol
    # Sums over the length-n axes are matrix-vector products on reshapes,
    # which cost far less than numpy's reductions over a short axis.
    ones = np.ones(n)
    # Row 2j of the steps is matrix j's Newton step, row 2j + 1 its sweep.
    odds = np.arange(1, 2 * k, 2)
    rounding = 4 * n * np.finfo(float).eps
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
    call, its mixtures from one ``_random_ds_matrices`` stack, their
    membership from one ``_membership`` pass, each mixture against its own
    pencil, and the accepted ones from one ``_discriminants`` call; p(e) is
    one determinant per pencil.  Ratios, violations and the barren-pencil
    rule then run in pencil order, and a block whose mixtures were rejected
    leaves the rest to the next block.  ``max_sinkhorn_sweeps`` is the most
    guarded Newton steps any block's stack took (about 5; the name dates from
    plain Sinkhorn sweeps); at ``_SINKHORN_MAX_SWEEPS`` a stack stopped at
    the cap, not at its row-sum test, and its mixtures may fail the
    membership recheck.  SamplerExhausted after
    ``_MAX_BARREN_PENCILS`` pencils in a row accept no mixture.
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
        at_e = mats.sum(1)
        reducers = _inv_sqrt(*_eigh(at_e), tol)
        p_e = np.linalg.det(at_e).real
        mixes, sweeps = _random_ds_matrices(need, n, rng, tol)
        max_sweeps = max(max_sweeps, sweeps)
        owner = np.repeat(np.arange(len(counts)), counts)
        # The vectors of a mixture are its columns.
        *_, passes, points = _membership(
            mats[owner, None], reducers[owner, None], np.ones(n), mixes.swapaxes(-1, -2), tol
        )
        ratios = np.zeros(need)
        if passes.any():
            ratios[passes] = _discriminants(points[passes]) / p_e[owner[passes]]
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
