"""Functions that only the tests call: a random Hermitian matrix, the
M(A, W) bridge, full indecomposability of a doubly stochastic matrix's
support and pairwise averaging of a tuple's slots.

No library route, command or benchmark reads them, so they live beside the
tests that check them (``test_core``, ``test_structure``, ``test_extremal``,
``test_centered_kernel``, ``test_refusals``) rather than in ``mixdisc``.
"""

import numpy as np

from mixdisc.core import MixdiscError, max_abs, random_complex_gaussian
from mixdisc.discriminant import MatrixTuple, _as_real


class NotUnitary(MixdiscError):
    pass


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex_gaussian(n, rng)
    return (g + g.conj().T) / 2.0


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


def _reachable(support: np.ndarray, rows: np.ndarray):
    """Row and column masks reachable from the row mask ``rows`` in the
    bipartite graph of the boolean matrix ``support``."""
    while True:  # grow the rows until they stop growing
        cols = rows @ support
        reached = rows | (support @ cols)
        if (reached == rows).all():
            return rows, cols
        rows = reached


def is_fully_indecomposable_support(m, threshold: float) -> bool:
    """Full indecomposability of a nonnegative doubly stochastic matrix.

    For doubly stochastic matrices this reduces to connectivity of the
    bipartite support graph (no k x (n-k) zero submatrix after permutation).
    """
    support = np.asarray(m) > threshold
    rows, cols = _reachable(support, np.arange(len(support)) == 0)
    return bool(rows.all() and cols.all())


def averaging_sweep(t: MatrixTuple, sweeps: int) -> MatrixTuple:
    """Apply f_{1,2}, f_{2,3}, .., f_{n-1,n} cyclically for ``sweeps`` rounds.

    Each f_{i,j} replaces slots i and j by their arithmetic average; the limit
    is the constant tuple of the slot average.
    """
    mats = t.matrices.copy()
    for _ in range(sweeps):
        for i in range(t.n - 1):
            mats[i] = mats[i + 1] = (mats[i] + mats[i + 1]) / 2.0
    return MatrixTuple(mats)
