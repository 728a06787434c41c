"""Indecomposability tests, block decomposition, and the M(A, W) bridge.

Subset scans and :func:`decompose` are gated at n <= 16 by ``core._gate``, and
count every rank from eigenvalues by ``core._rank_of_eigenvalues``."""

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
    _slot_eigenvalues,
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
    tuple); the index sets partition {0,..,n-1} and D(t) equals the product of
    the block discriminants up to ``product_check``.
    """

    parts: list
    product_check: float


def _first_subset(mats: np.ndarray, rank_test, tol: Tolerances, slot_eigs=None):
    """First proper subset S with rank_test(rank(sum_{i in S} A_i), |S|), or None.

    Subsets are scanned in ascending cardinality and canonical order, so the
    subset found is minimal.  Each cardinality's subset sums are formed as
    ``mats[idx].sum(1)`` (the same additions, in the same order, as one
    subset at a time) and ranked from one batched ``eigvalsh`` call per chunk;
    a chunk gathers at most ``_SCAN_CHUNK`` matrix entries, so the scan's
    memory stays near 2 MB at any n.  The single slots are ranked from
    ``slot_eigs``, their eigenvalues (n, n), when the caller has them.  The
    scan stops after the first chunk that holds a witness, or after the
    first cardinality whose subset sums all have rank n: a PSD sum only gains
    rank as slots are added, so no larger proper subset can meet ``le``,
    ``eq`` or ``lt``.
    """
    n = len(mats)
    for k in range(1, n):
        rows = _SCAN_CHUNK // (k * n * n)
        combos = itertools.combinations(range(n), k)
        full_rank = True
        for _ in range(0, math.comb(n, k), rows):
            idx = np.fromiter(itertools.islice(combos, rows), dtype=(np.intp, k))
            if k == 1 and slot_eigs is not None:
                w = slot_eigs[idx[:, 0]]
            else:
                w = _eigh(mats[idx].sum(1), vectors=False)
            ranks = _rank_of_eigenvalues(w, tol)
            hits = np.flatnonzero(rank_test(ranks, k))
            if hits.size:
                return tuple(int(i) for i in idx[hits[0]])
            full_rank = full_rank and bool((ranks == n).all())
        if full_rank:
            return None
    return None


def _scan_psd_tuple(t: MatrixTuple, rank_test, tol: Tolerances):
    _gate(t.n, _GATE_SUBSETS, "subset scan")
    return _first_subset(t.matrices, rank_test, tol, _require_psd(t, tol))


def is_indecomposable(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL):
    """Strict rank test over all proper subsets: rank(sum_{i in S} A_i) > |S|.

    Returns (True, None) or (False, witness_subset); the witness is minimal.
    """
    witness = _scan_psd_tuple(t, operator.le, tol)
    return witness is None, witness


def positivity_rank_test(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Weak rank condition rank(sum_{i in S} A_i) >= |S| over all subsets S: the
    proper ones by the scan, then S = all slots; equivalent to D(t) > 0 for PSD
    tuples."""
    if _scan_psd_tuple(t, operator.lt, tol) is not None:
        return False
    return rank_psd(t.matrices.sum(0), tol) >= t.n


def _split(mats, labels, basis, tol: Tolerances, parts, whole=None):
    """Recursively peel off minimal rank-equality subsets.

    ``mats`` is the (c, c, c) stack in the current restricted coordinates;
    ``basis`` maps those coordinates back to the original space.  ``whole``
    is the tuple of ``mats`` when the caller has one: its memoized slot
    eigenvalues rank the single slots, and if it is indecomposable it is its
    own part, not a validated copy.
    """
    slot_eigs = None if whole is None else _slot_eigenvalues(whole)
    witness = _first_subset(mats, operator.eq, tol, slot_eigs)
    if witness is None:
        parts.append((tuple(labels), basis, MatrixTuple(mats) if whole is None else whole))
        return
    inside = list(witness)
    w, v = _eigh(mats[inside].sum(0))
    cut = int(_rank_of_eigenvalues(w, tol))
    if cut != len(witness):
        raise DecompositionInconsistent(
            f"image of subset {witness} has rank {cut}, expected {len(witness)}"
        )
    v = v[:, ::-1]  # descending: the image of the witness sum comes first
    rest = [i for i in range(len(mats)) if i not in witness]
    for idx, u in ((inside, v[:, :cut]), (rest, v[:, cut:])):
        _split(u.conj().T @ mats[idx] @ u, [labels[i] for i in idx], basis @ u, tol, parts)


def decompose(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DecompositionResult:
    """Indecomposable block decomposition of a doubly stochastic tuple.

    Splits recursively along minimal subsets whose matrix sum has rank equal
    to the subset size; verifies D(t) = prod of block discriminants and raises
    DecompositionInconsistent when the check fails (rank misclassification).
    An indecomposable t is its own single part, so D is computed once for the
    check (``eval_polarized`` keeps it on the tuple) and read twice.
    """
    n = t.n
    _gate(n, _GATE_SUBSETS, "decompose")
    report = check_doubly_stochastic(t, tol)
    if not report.is_doubly_stochastic:
        raise NotDoublyStochastic(f"input is not doubly stochastic: {report}")
    parts: list = []
    _split(t.matrices, list(range(n)), np.eye(n, dtype=np.complex128), tol, parts, t)
    d_total = eval_polarized(t)
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
    rows = np.arange(len(support)) == 0
    while True:  # grow the rows reachable from row 0 until they stop growing
        cols = support[rows].any(axis=0)
        reached = rows | support[:, cols].any(axis=1)
        if (reached == rows).all():
            return bool(rows.all() and cols.all())
        rows = reached
