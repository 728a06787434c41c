"""Indecomposability tests, block decomposition, and the M(A, W) bridge.

The rank tests scan subsets, gated at n <= 16 by ``core._gate``, and count
ranks by ``core._rank_of_eigenvalues``.  :func:`decompose` splits a doubly
stochastic tuple along the components of its trace Gram matrix; its product
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


def decompose(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DecompositionResult:
    """Indecomposable block decomposition of a doubly stochastic tuple.

    On DS input G_ij = tr(A_i A_j) >= 0 vanishes exactly when A_i A_j = 0, and
    S is tight (rank sum_S A_i = |S|) exactly when G vanishes between S and
    its complement: P = sum_S A_i <= I has trace |S|, so it has rank |S|
    exactly when it is a projection, and P (I - P) = sum_{i in S, j not in S}
    A_i A_j.  So the parts are the connected components C of {G_ij >
    rank_tol}, each with the top |C| eigenvectors of sum_C A_i as its basis.
    Raises DecompositionInconsistent when that sum's rank is not |C| or
    D(t) = prod of block discriminants fails.  An indecomposable t is its own
    single part, so D is computed once for the check (``eval_polarized``
    keeps it on the tuple) and read twice.
    """
    report = check_doubly_stochastic(t, tol)
    if not report.is_doubly_stochastic:
        raise NotDoublyStochastic(f"input is not doubly stochastic: {report}")
    n = t.n
    d_total = eval_polarized(t)
    # Real view of the slots flattened to rows: tr(A_i A_j) = flat_i . flat_j.
    flat = np.ascontiguousarray(t.matrices).reshape(n, n * n).view(np.float64)
    support = flat @ flat.T > tol.rank_tol
    parts: list = []
    free = np.ones(n, dtype=bool)
    while free.any():
        comp, _ = _reachable(support, np.arange(n) == np.argmax(free))
        free &= ~comp
        if comp.all():
            parts.append((tuple(range(n)), np.eye(n, dtype=np.complex128), t))
            break
        inside = np.flatnonzero(comp)
        w, v = _eigh(t.matrices[inside].sum(0))
        cut = int(_rank_of_eigenvalues(w, tol))
        if cut != len(inside):
            raise DecompositionInconsistent(
                f"image of subset {tuple(inside.tolist())} has rank {cut}, expected {len(inside)}"
            )
        u = v[:, ::-1][:, :cut]  # descending: the image of the part's sum
        parts.append((tuple(inside.tolist()), u, MatrixTuple(u.conj().T @ t.matrices[inside] @ u)))
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
