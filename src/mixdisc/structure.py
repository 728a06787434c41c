"""Indecomposability tests and block decomposition.

The two rank tests read n generic vectors from the slot ranges
(``_generic_ranks``), in polynomial time at every n, and that is the one
reading of a tight set.  They run on a (B, n, n, n) stack and its slots'
eigenvalues (``_rank_tests``): :func:`is_indecomposable` and
:func:`positivity_rank_test` are its one-tuple calls, and the scaling
precondition (``capacity._scale_stack``) its stack call.
:func:`decompose` peels the certified witnesses of :func:`is_indecomposable`
off a doubly stochastic tuple; its product check's ``eval_polarized`` gates
it at n <= 20."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _EPS,
    DEFAULT_TOL,
    NotDoublyStochastic,
    NumericalInconsistency,
    PreconditionViolated,
    Tolerances,
    _eigh,
    _one,
    _psd,
    _rank_of_eigenvalues,
    make_rng,
    random_complex_gaussian,
    rank_psd,
)
from .discriminant import (
    MatrixTuple,
    _slot_eigenvalues,
    check_doubly_stochastic,
    eval_polarized,
)

# Seed of the generic vectors that decide the two rank tests.
_DRAW_SEED = 0


@dataclass(frozen=True)
class DecompositionResult:
    """Indecomposable blocks of a doubly stochastic tuple.

    ``parts`` is a list of (index set, orthonormal subspace basis, restricted
    tuple) in order of smallest slot; the index sets partition {0,..,n-1} and
    D(t) equals the product of the block discriminants up to ``product_check``.
    """

    parts: list
    product_check: float


def _generic_ranks(mats: np.ndarray, ranks: np.ndarray, tol: Tolerances):
    """(weak rank condition holds, certified witness subset or None) of one
    PSD (n, n, n) tuple whose slot ranks ``ranks`` are not all n, from n
    generic vectors, or the ``NumericalInconsistency`` of a witness that
    fails its certification.

    u_i = F_i g_i and v_j = F_j h_j, with F_i slot i's top rank_i
    eigenvectors (one batched ``_eigh``) and g, h from
    ``make_rng(_DRAW_SEED)``.  For generic draws U = [u_1 .. u_n] is
    nonsingular exactly when every rank(sum_S A_i) >= |S| (Edmonds 1967;
    Gurvits 2004), and then the support of column j of X = U^-1 V is the
    smallest S containing j with rank(sum_S A_i) = |S|.  By one SVD of U,
    with f = 1e3 n u (u the unit round-off): U is singular when
    s_min <= f s_max, and an entry of a column of X, or of U's null vector,
    is in its support above f cond times the column's largest, cond being
    s_max over the smallest singular value above f s_max.  The witness is the
    smallest proper support of X (ties to its smallest slot), else the null
    vector's support, or all slots but the last if that is every slot.  It
    is certified on the slot ranges the supports read, from the
    eigenvectors of the same solve: ``rank_psd`` of sum_{i in S} F_i F_i^*
    is at most |S|.  The raw sum of S would count together eigenvalues that
    each slot drops below rank_tol.
    """
    n = len(mats)
    top = np.arange(n) >= n - ranks[:, None]  # eigenvalues are ascending
    coef = random_complex_gaussian((2, n, n), make_rng(_DRAW_SEED)) * top
    vecs = _eigh(mats)[1]
    u, v = np.einsum("iab,kib->kai", vecs, coef)
    w, s, vh = np.linalg.svd(u)
    f = 1e3 * n * _EPS / 2
    live = s > f * s[0]
    weak = bool(live.all())
    x = vh.conj().T @ (w.conj().T @ v / s[:, None]) if weak else vh[-1:].conj().T
    cut = f * s[0] / s[live][-1] if live.any() else f
    mag = np.abs(x)
    supports = [tuple(np.flatnonzero(c).tolist()) for c in (mag > cut * mag.max(0)).T]
    if weak:
        proper = [sup for sup in supports if len(sup) < n]
        witness = min(proper, key=lambda sup: (len(sup), sup), default=None)
    else:  # at n = 1 the only support is every slot: no witness
        witness = (supports[0] if len(supports[0]) < n else tuple(range(n - 1))) or None
    if witness is not None:
        f = vecs[list(witness)] * top[list(witness), None]
        if rank_psd((f @ f.conj().swapaxes(1, 2)).sum(0), tol) > len(witness):
            return NumericalInconsistency(f"witness subset {witness} is not tight")
    return weak, witness


def _rank_tests(mats: np.ndarray, w: np.ndarray, tol: Tolerances) -> list:
    """The two rank tests of each tuple of a (B, n, n, n) stack whose slots
    have the ascending eigenvalues w (B, n, n): per tuple (weak rank
    condition holds, certified witness or None), or its
    ``PreconditionViolated`` or ``NumericalInconsistency``.

    The eigenvalues decide the PSD rule (``core._psd`` at the tuple's largest
    |entry|) and rank the slots, so every tuple of slots all of rank n, such
    as a Wishart draw, answers at once.  Each other tuple is read by
    ``_generic_ranks`` alone, on its own draw of the fixed seed, so a tuple's
    verdict does not depend on its stack.
    """
    ranks = _rank_of_eigenvalues(w, tol)
    psd = _psd(w, np.abs(mats).max((1, 2, 3))[:, None], tol).all(1)
    out = [(True, None)] * len(mats)
    for j in (~psd | (ranks < mats.shape[1]).any(1)).nonzero()[0]:
        out[j] = (
            _generic_ranks(mats[j], ranks[j], tol) if psd[j]
            else PreconditionViolated(f"tuple is not PSD (smallest eigenvalue {w[j].min():.3e})")
        )
    return out


def is_indecomposable(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL):
    """Strict rank test over all proper subsets: rank(sum_{i in S} A_i) > |S|.

    Returns (True, None) or (False, witness) with the certified proper
    subset S of ``_rank_tests``, not necessarily the smallest: its one-tuple
    call, on the memoized slot eigenvalues (``_slot_eigenvalues``).
    """
    witness = _one(_rank_tests(t.matrices[None], _slot_eigenvalues(t)[None], tol))[1]
    return witness is None, witness


def positivity_rank_test(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Weak rank condition rank(sum_{i in S} A_i) >= |S| over all subsets S,
    all n slots included: the one-tuple call of ``_rank_tests``, on the
    memoized slot eigenvalues; equivalent to D(t) > 0 for PSD tuples."""
    return _one(_rank_tests(t.matrices[None], _slot_eigenvalues(t)[None], tol))[0]


def decompose(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DecompositionResult:
    """Indecomposable block decomposition of a doubly stochastic tuple.

    Each round peels the certified witness S of :func:`is_indecomposable` off
    the remaining slots: the smallest proper support of X = U^-1 V, so a
    minimal tight set.  S is a part on the top |S| eigenvectors of its sum,
    the other slots are compressed to the remaining eigenvectors, and the
    round repeats until the remainder is indecomposable.  Tightness is thus
    read as the scaling precondition reads it.  The bases come from the raw
    compressed slots; only the witness test wraps them in a ``MatrixTuple``.
    Raises ``NotDoublyStochastic`` unless ``check_doubly_stochastic`` holds
    (its PSD rule is the one the rank tests read), and
    ``NumericalInconsistency`` when a witness fails its certification or
    D(t) = prod of block discriminants fails.  An indecomposable t is
    its own single part, so D is computed once for the check
    (``eval_polarized`` keeps it) and read twice.
    """
    report = check_doubly_stochastic(t, tol)
    if not report.is_doubly_stochastic:
        raise NotDoublyStochastic(f"input is not doubly stochastic: {report}")
    n = t.n
    d_total = eval_polarized(t)
    found = []
    slots, basis, mats, sub = np.arange(n), np.eye(n, dtype=np.complex128), t.matrices, t
    while (witness := is_indecomposable(sub, tol)[1]) is not None:
        k, inside = len(witness), np.isin(np.arange(len(slots)), witness)
        v = _eigh(mats[inside].sum(0))[1][:, ::-1]
        found.append((slots[inside], basis @ v[:, :k]))
        slots, basis = slots[~inside], basis @ v[:, k:]
        mats = v[:, k:].conj().T @ mats[~inside] @ v[:, k:]
        sub = MatrixTuple(mats, tol)
    if not found:
        parts = [(tuple(range(n)), basis, t)]
    else:
        found.append((slots, basis))
        parts = [
            (tuple(idx.tolist()), u, MatrixTuple(u.conj().T @ t.matrices[idx] @ u))
            for idx, u in sorted(found, key=lambda part: part[0][0])
        ]
    d_prod = 1.0
    for _, _, sub in parts:
        d_prod *= eval_polarized(sub)
    product_check = abs(d_total - d_prod)
    if product_check > 1e-8 * (1.0 + abs(d_total)):
        raise NumericalInconsistency(
            f"product identity off by {product_check:.3e} "
            f"(D = {d_total:.12g}, prod = {d_prod:.12g})"
        )
    return DecompositionResult(parts=parts, product_check=product_check)
