"""Indecomposability tests, block decomposition, and the M(A, W) bridge."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DecompositionInconsistent,
    DimensionTooLarge,
    NotDoublyStochastic,
    NotUnitary,
    Tolerances,
    eig_hermitian,
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
    tuple); the index sets partition {0,..,n-1} and D(t) equals the product of
    the block discriminants up to ``product_check``.
    """

    parts: list
    product_check: float


def _first_subset(mats: np.ndarray, rank_test, tol: Tolerances):
    """First proper subset S with rank_test(rank(sum_{i in S} A_i), |S|), or None.

    Subsets are scanned in ascending cardinality and canonical order, so the
    subset found is minimal.  Each cardinality's subset sums are formed as
    ``mats[idx].sum(1)`` (the same additions, in the same order, as one
    subset at a time) and ranked by one batched ``rank_psd`` call per chunk;
    a chunk gathers at most ``_SCAN_CHUNK`` matrix entries, so the scan's
    memory stays near 2 MB at any n.  The scan stops after the first chunk
    that holds a witness.
    """
    n = len(mats)
    for k in range(1, n):
        rows = _SCAN_CHUNK // (k * n * n)
        combos = itertools.combinations(range(n), k)
        for _ in range(0, math.comb(n, k), rows):
            idx = np.fromiter(itertools.islice(combos, rows), dtype=(np.intp, k))
            hits = np.flatnonzero(rank_test(rank_psd(mats[idx].sum(1), tol), k))
            if hits.size:
                return tuple(int(i) for i in idx[hits[0]])
    return None


def _scan_psd_tuple(t: MatrixTuple, rank_test, tol: Tolerances):
    if t.n > _GATE_SUBSETS:
        raise DimensionTooLarge(f"subset scan gated at n <= {_GATE_SUBSETS}")
    _require_psd(t, tol)
    return _first_subset(t.matrices, rank_test, tol)


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


def _split(mats, labels, basis, tol: Tolerances, parts):
    """Recursively peel off minimal rank-equality subsets.

    ``mats`` is the (c, c, c) stack in the current restricted coordinates;
    ``basis`` maps those coordinates back to the original space.
    """
    witness = _first_subset(mats, operator.eq, tol)
    if witness is None:
        parts.append((tuple(labels), basis, MatrixTuple(mats)))
        return
    inside = list(witness)
    w, v = eig_hermitian(mats[inside].sum(0))
    cut = int(np.count_nonzero(w > tol.rank_tol * max(w[0], 0.0))) if w[0] > 0 else 0
    if cut != len(witness):
        raise DecompositionInconsistent(
            f"image of subset {witness} has rank {cut}, expected {len(witness)}"
        )
    rest = [i for i in range(len(mats)) if i not in witness]
    for idx, u in ((inside, v[:, :cut]), (rest, v[:, cut:])):
        _split(u.conj().T @ mats[idx] @ u, [labels[i] for i in idx], basis @ u, tol, parts)


def decompose(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DecompositionResult:
    """Indecomposable block decomposition of a doubly stochastic tuple.

    Splits recursively along minimal subsets whose matrix sum has rank equal
    to the subset size; verifies D(t) = prod of block discriminants and raises
    DecompositionInconsistent when the check fails (rank misclassification).
    """
    n = t.n
    if n > _GATE_SUBSETS:
        raise DimensionTooLarge(f"decompose gated at n <= {_GATE_SUBSETS}")
    report = check_doubly_stochastic(t, tol)
    if not report.is_doubly_stochastic:
        raise NotDoublyStochastic(f"input is not doubly stochastic: {report}")
    parts: list = []
    _split(t.matrices, list(range(n)), np.eye(n, dtype=np.complex128), tol, parts)
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
