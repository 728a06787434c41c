"""Indecomposability tests, block decomposition, and the M(A, W) bridge.

The two rank tests read n generic vectors from the slot ranges
(``_generic_ranks``), in polynomial time at every n.  :func:`decompose`
peels the tight components of its trace Gram graph off a doubly stochastic
tuple; its product check's ``eval_polarized`` gates it at n <= 20."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
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
    """(weak rank condition holds, witness subset or None), from n generic vectors.

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
    """
    n = t.n
    ranks = _rank_of_eigenvalues(_require_psd(t, tol), tol)
    if (ranks == n).all():
        return True, None
    rng = make_rng(_DRAW_SEED)
    coef = np.array([random_complex_gaussian(n, rng) for _ in range(2)])
    coef *= np.arange(n) >= n - ranks[:, None]  # eigenvalues are ascending
    u, v = np.einsum("iab,kib->kai", _eigh(t.matrices)[1], coef)
    w, s, vh = np.linalg.svd(u)
    f = 1e3 * n * np.finfo(np.float64).eps / 2
    live = s > f * s[0]
    x = vh.conj().T @ (w.conj().T @ v / s[:, None]) if live.all() else vh[-1:].conj().T
    cut = f * s[0] / s[live][-1] if live.any() else f
    mag = np.abs(x)
    supports = [tuple(np.flatnonzero(c).tolist()) for c in (mag > cut * mag.max(0)).T]
    if not live.all():  # at n = 1 the only support is every slot: no witness
        return False, (supports[0] if len(supports[0]) < n else tuple(range(n - 1))) or None
    proper = [sup for sup in supports if len(sup) < n]
    return True, min(proper, key=lambda sup: (len(sup), sup), default=None)


def is_indecomposable(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL):
    """Strict rank test over all proper subsets: rank(sum_{i in S} A_i) > |S|.

    Returns (True, None) or (False, witness) with the proper subset S of
    ``_generic_ranks``, not necessarily the smallest, certified on the slot
    ranges the supports read: with F_i slot i's top rank_i eigenvectors,
    ``rank_psd`` of sum_{i in S} F_i F_i^* is at most |S|, else
    ``NumericalInconsistency``.  The raw sum of S would count together
    eigenvalues that each slot drops below rank_tol.
    """
    _, witness = _generic_ranks(t, tol)
    if witness is not None:
        slots = list(witness)
        ranks = _rank_of_eigenvalues(_require_psd(t, tol), tol)[slots]
        f = _eigh(t.matrices[slots])[1] * (np.arange(t.n) >= t.n - ranks[:, None])[:, None]
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


def _first_tight(mats: np.ndarray, tol: Tolerances):
    """The first component C of {G_ij > 2 (m - 1) rank_tol}, by size and then
    smallest slot, whose sum has rank |C| by the rank rule, with that sum's
    eigenvectors in descending order; None when there is no such proper
    component.

    ``mats`` is a doubly stochastic (m, m, m) stack, so G_ij = tr(A_i A_j)
    >= 0, and for P = sum_{i in C} A_i (0 <= P <= I, tr P = |C|) the cut of C
    in G is tr(P (I - P)) = sum_{i in C, j not in C} G_ij.  If P has rank |C|
    by the rank rule, its eigenvalues beyond the top |C| are at most
    rank_tol times the largest, so at most rank_tol each, and the top |C|
    fall short of 1 by as much in total: the cut is at most
    2 (m - |C|) rank_tol.  So no edge above 2 (m - 1) rank_tol crosses a
    tight set, and the components are never coarser than the parts.
    """
    m = len(mats)
    # Real view of the slots flattened to rows: tr(A_i A_j) = flat_i . flat_j.
    flat = mats.reshape(m, m * m).view(np.float64)
    support = flat @ flat.T > 2.0 * (m - 1) * tol.rank_tol
    comps = []
    free = np.ones(m, dtype=bool)
    while free.any():
        comp, _ = _reachable(support, np.arange(m) == np.argmax(free))
        free &= ~comp
        comps.append(comp)
    if len(comps) == 1:
        return None
    for comp in sorted(comps, key=lambda c: (c.sum(), np.argmax(c))):
        w, v = _eigh(mats[comp].sum(0))
        if _rank_of_eigenvalues(w, tol) == comp.sum():
            return comp, v[:, ::-1]
    return None


def decompose(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DecompositionResult:
    """Indecomposable block decomposition of a doubly stochastic tuple.

    The first tight component C of the trace Gram graph (``_first_tight``)
    is a part on the top |C| eigenvectors of its sum, and the other slots are
    restricted to the remaining eigenvectors and decomposed the same way, as
    a recursive split that ranks every subset would peel off its smallest
    tight one.  A cut is thus kept when the rank rule holds on one side of
    it.  Raises DecompositionInconsistent when D(t) = prod of block
    discriminants fails.  An indecomposable t is its own single part, so D is
    computed once for the check (``eval_polarized`` keeps it) and read twice.
    """
    report = check_doubly_stochastic(t, tol)
    if not report.is_doubly_stochastic:
        raise NotDoublyStochastic(f"input is not doubly stochastic: {report}")
    n = t.n
    d_total = eval_polarized(t)
    found = []
    slots, basis, mats = np.arange(n), np.eye(n, dtype=np.complex128), t.matrices
    while (tight := _first_tight(mats, tol)) is not None:
        comp, v = tight
        inside, outside = v[:, : comp.sum()], v[:, comp.sum() :]
        found.append((slots[comp], basis @ inside))
        slots, basis = slots[~comp], basis @ outside
        mats = outside.conj().T @ mats[~comp] @ outside
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
