"""Indecomposability tests, block decomposition, and the M(A, W) bridge.

The rank tests scan subsets, gated at n <= 16 by ``core._gate``, and count
ranks by ``core._rank_of_eigenvalues``.  :func:`decompose` peels the tight
components of its trace Gram graph off a doubly stochastic tuple; its product
check's ``eval_polarized`` gates it at n <= 20."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DecompositionInconsistent,
    NotDoublyStochastic,
    NotUnitary,
    Tolerances,
    _eigh,
    _gate,
    _rank_of_eigenvalues,
    max_abs,
    rank_psd,
)
from .discriminant import (
    MatrixTuple,
    _as_real,
    _require_psd,
    check_doubly_stochastic,
    eval_polarized,
)

_GATE_SUBSETS = 16
# Matrix entries gathered per chunk of the subset scan (2 MB of complex128).
_SCAN_CHUNK = 1 << 17


@dataclass(frozen=True)
class DecompositionResult:
    """Indecomposable blocks of a doubly stochastic tuple.

    ``parts`` is a list of (index set, orthonormal subspace basis, restricted
    tuple) in order of smallest slot; the index sets partition {0,..,n-1} and
    D(t) equals the product of the block discriminants up to ``product_check``.
    """

    parts: list
    product_check: float


def _first_subset(t: MatrixTuple, rank_test, tol: Tolerances):
    """First proper subset S with rank_test(rank(sum_{i in S} A_i), |S|), or None.

    The slots must pass the PSD check at ``tol`` (``_require_psd``, else
    ``PreconditionViolated``), whose eigenvalues rank the single slots.
    Subsets are scanned in ascending cardinality and canonical order, so the
    subset found is minimal.  Each larger cardinality's subset sums are formed
    as ``t.matrices[idx].sum(1)`` (the same additions, in the same order, as one
    subset at a time) and ranked from one batched ``eigvalsh`` call per chunk;
    a chunk gathers at most ``_SCAN_CHUNK`` matrix entries, so the scan's
    memory stays near 2 MB at any n.  The scan stops after the first chunk
    that holds a witness, or after the first cardinality whose subset sums
    all have rank n: a PSD sum only gains rank as slots are added, so no
    larger proper subset can meet ``le`` or ``lt``.
    """
    n = t.n
    _gate(n, _GATE_SUBSETS, "subset scan")
    slot_eigs = _require_psd(t, tol)
    for k in range(1, n):
        rows = _SCAN_CHUNK // (k * n * n)
        combos = itertools.combinations(range(n), k)
        full_rank = True
        for _ in range(0, math.comb(n, k), rows):
            idx = np.fromiter(itertools.islice(combos, rows), dtype=(np.intp, k))
            if k == 1:
                w = slot_eigs[idx[:, 0]]
            else:
                w = _eigh(t.matrices[idx].sum(1), vectors=False)
            ranks = _rank_of_eigenvalues(w, tol)
            hits = np.flatnonzero(rank_test(ranks, k))
            if hits.size:
                return tuple(int(i) for i in idx[hits[0]])
            full_rank = full_rank and bool((ranks == n).all())
        if full_rank:
            return None
    return None


def is_indecomposable(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL):
    """Strict rank test over all proper subsets: rank(sum_{i in S} A_i) > |S|.

    Returns (True, None) or (False, witness_subset); the witness is minimal.
    """
    witness = _first_subset(t, operator.le, tol)
    return witness is None, witness


def positivity_rank_test(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Weak rank condition rank(sum_{i in S} A_i) >= |S| over all subsets S: the
    proper ones by the scan, then S = all slots; equivalent to D(t) > 0 for PSD
    tuples."""
    if _first_subset(t, operator.lt, tol) is not None:
        return False
    return rank_psd(t.matrices.sum(0), tol) >= t.n


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
    """The first component C of {G_ij > 2 (m - 1) rank_tol}, in the subset
    scan's order (by size, then smallest slot), whose sum has rank |C| by the
    rank rule, with that sum's eigenvectors in descending order; None when
    there is no such proper component.

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
    the recursive split by subset scan peels off its first tight subset.  A
    cut is thus kept when the rank rule holds on one side of it.  Raises
    DecompositionInconsistent when D(t) = prod of block discriminants fails.
    An indecomposable t is its own single part, so D is computed once for the
    check (``eval_polarized`` keeps it on the tuple) and read twice.
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
