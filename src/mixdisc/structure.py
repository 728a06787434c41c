"""Indecomposability tests, block decomposition, and the M(A, W) bridge.

The two rank tests read n generic vectors from the slot ranges
(``_generic_ranks``), in polynomial time at every n, and that is the one
reading of a tight set: :func:`decompose` peels the certified witnesses of
:func:`is_indecomposable` off a doubly stochastic tuple; its product
check's ``eval_polarized`` gates it at n <= 20."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _EPS,
    DEFAULT_TOL,
    DecompositionInconsistent,
    NotDoublyStochastic,
    NotUnitary,
    NumericalInconsistency,
    Tolerances,
    _eigh,
    _rank_of_eigenvalues,
    make_rng,
    max_abs,
    random_complex_gaussian,
    rank_psd,
)
from .discriminant import (
    MatrixTuple,
    _as_real,
    _require_psd,
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


def _generic_ranks(t: MatrixTuple, tol: Tolerances):
    """(weak rank condition holds, witness subset or None, the slots'
    eigenvectors or None), from n generic vectors.

    After the PSD check (``_require_psd``), whose eigenvalues rank the slots,
    slots all of rank n answer at once.  Otherwise u_i = F_i g_i and
    v_j = F_j h_j, with F_i slot i's top rank_i eigenvectors (one batched
    ``_eigh``) and g, h from ``make_rng(_DRAW_SEED)``.  For generic draws
    U = [u_1 .. u_n] is nonsingular exactly when every rank(sum_S A_i) >= |S|
    (Edmonds 1967; Gurvits 2004), and then the support of column j of
    X = U^-1 V is the smallest S containing j with rank(sum_S A_i) = |S|.
    By one SVD of U, with f = 1e3 n u (u the unit round-off): U is singular
    when s_min <= f s_max, and an entry of a column of X, or of U's null
    vector, is in its support above f cond times the column's largest, cond
    being s_max over the smallest singular value above f s_max.  The witness
    is the smallest proper support of X (ties to its smallest slot), else the
    null vector's support, or all slots but the last if that is every slot.
    The eigenvectors, None where the ranks answer alone, let
    ``is_indecomposable`` certify the witness without a second solve.
    """
    n = t.n
    ranks = _rank_of_eigenvalues(_require_psd(t, tol), tol)
    if (ranks == n).all():
        return True, None, None
    rng = make_rng(_DRAW_SEED)
    coef = np.array([random_complex_gaussian(n, rng) for _ in range(2)])
    coef *= np.arange(n) >= n - ranks[:, None]  # eigenvalues are ascending
    vecs = _eigh(t.matrices)[1]
    u, v = np.einsum("iab,kib->kai", vecs, coef)
    w, s, vh = np.linalg.svd(u)
    f = 1e3 * n * _EPS / 2
    live = s > f * s[0]
    x = vh.conj().T @ (w.conj().T @ v / s[:, None]) if live.all() else vh[-1:].conj().T
    cut = f * s[0] / s[live][-1] if live.any() else f
    mag = np.abs(x)
    supports = [tuple(np.flatnonzero(c).tolist()) for c in (mag > cut * mag.max(0)).T]
    if not live.all():  # at n = 1 the only support is every slot: no witness
        witness = (supports[0] if len(supports[0]) < n else tuple(range(n - 1))) or None
        return False, witness, vecs
    proper = [sup for sup in supports if len(sup) < n]
    return True, min(proper, key=lambda sup: (len(sup), sup), default=None), vecs


def is_indecomposable(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL):
    """Strict rank test over all proper subsets: rank(sum_{i in S} A_i) > |S|.

    Returns (True, None) or (False, witness) with the proper subset S of
    ``_generic_ranks``, not necessarily the smallest, certified on the slot
    ranges the supports read, from the eigenvectors of the same solve: with
    F_i slot i's top rank_i eigenvectors, ``rank_psd`` of
    sum_{i in S} F_i F_i^* is at most |S|, else ``NumericalInconsistency``.
    The raw sum of S would count together eigenvalues that each slot drops
    below rank_tol.
    """
    _, witness, vecs = _generic_ranks(t, tol)
    if witness is not None:
        slots = list(witness)
        ranks = _rank_of_eigenvalues(_require_psd(t, tol), tol)[slots]
        f = vecs[slots] * (np.arange(t.n) >= t.n - ranks[:, None])[:, None]
        if rank_psd((f @ f.conj().swapaxes(1, 2)).sum(0), tol) > len(slots):
            raise NumericalInconsistency(f"witness subset {witness} is not tight")
    return witness is None, witness


def positivity_rank_test(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Weak rank condition rank(sum_{i in S} A_i) >= |S| over all subsets S,
    all n slots included (``_generic_ranks``); equivalent to D(t) > 0 for PSD
    tuples."""
    return _generic_ranks(t, tol)[0]


def _reachable(support: np.ndarray, rows: np.ndarray):
    """Row and column masks reachable from the row mask ``rows`` in the
    bipartite graph of the boolean matrix ``support``."""
    while True:  # grow the rows until they stop growing
        cols = rows @ support
        reached = rows | (support @ cols)
        if (reached == rows).all():
            return rows, cols
        rows = reached


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
    (its PSD rule is the one the rank tests read), ``NumericalInconsistency``
    when a witness fails its certification, and ``DecompositionInconsistent``
    when D(t) = prod of block discriminants fails.  An indecomposable t is
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
        raise DecompositionInconsistent(
            f"product identity off by {product_check:.3e} "
            f"(D = {d_total:.12g}, prod = {d_prod:.12g})"
        )
    return DecompositionResult(parts=parts, product_check=product_check)


def m_matrix(t: MatrixTuple, w) -> np.ndarray:
    """M(i, j) = <A_j w_i, w_i> for the columns w_i of a unitary W.

    Real by Hermiticity of the quadratic forms; the (tiny) imaginary residue
    is checked against 1e-10 and truncated.
    """
    w = np.asarray(w, dtype=np.complex128)
    n = t.n
    if w.shape != (n, n):
        raise ValueError(f"W must be {n} x {n}")
    if max_abs(w.conj().T @ w - np.eye(n)) > 1e-9:
        raise NotUnitary("W is not unitary within 1e-9")
    return _as_real(np.einsum("ki,jkl,li->ij", w.conj(), t.matrices, w), 1e-10)


def is_fully_indecomposable_support(m, threshold: float) -> bool:
    """Full indecomposability of a nonnegative doubly stochastic matrix.

    For doubly stochastic matrices this reduces to connectivity of the
    bipartite support graph (no k x (n-k) zero submatrix after permutation).
    """
    support = np.asarray(m) > threshold
    rows, cols = _reachable(support, np.arange(len(support)) == 0)
    return bool(rows.all() and cols.all())
