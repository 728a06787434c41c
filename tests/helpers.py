"""Functions that only the tests call: seeded PSD matrices, a random
Hermitian matrix, the diagonal tuple of a matrix's columns, a tuple with one
slot replaced, the mixed discriminant of a repeated tuple, a block matrix
from its assembled form, a pencil's document, the e-nonnegativity of a point,
the M(A, W) bridge, full indecomposability of a doubly stochastic matrix's
support, pairwise averaging of a tuple's slots and the block-diagonal Pascal
matrix of a tuple.

No library route, command or benchmark reads them, so they live beside the
tests that check them (and ``digests.py``) rather than in ``mixdisc``.
"""

import numpy as np

from mixdisc.cli import SCHEMA_VERSION, matrix_to_doc
from mixdisc.core import (
    DEFAULT_TOL,
    MixdiscError,
    Tolerances,
    _psd,
    _wishart,
    as_hermitian,
    max_abs,
    random_complex_gaussian,
)
from mixdisc.discriminant import MatrixTuple, _as_real, eval_polarized
from mixdisc.genaf import expand_tuple
from mixdisc.hyperbolic import HyperbolicPencil, roots
from mixdisc.pascal import BlockMatrix, SeparableSpec, assemble_separable


def random_psd(n: int, seed: int) -> np.ndarray:
    """G @ G* for a seeded complex Gaussian G, symmetrized exactly; almost
    surely positive definite."""
    return as_hermitian(_wishart(n, seed))


def diagonal_tuple(c) -> MatrixTuple:
    """The tuple of diagonal matrices built from the columns of ``c``.

    Bridges permanents and mixed discriminants: D of the result equals per(c).
    """
    a = np.asarray(c, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    return MatrixTuple([np.diag(a[:, j]) for j in range(a.shape[0])])


def replaced(t: MatrixTuple, i: int, m) -> MatrixTuple:
    """Copy of ``t`` with slot ``i`` replaced by ``m``."""
    mats = list(t.matrices)
    mats[i] = m
    return MatrixTuple(mats)


def m_alpha(t: MatrixTuple, alpha) -> float:
    """Mixed discriminant of the repeated tuple."""
    return eval_polarized(expand_tuple(t, alpha))


def from_assembled(rho, n: int) -> BlockMatrix:
    """The block matrix whose assembled (n^2, n^2) form is ``rho``."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (n * n, n * n):
        raise ValueError(f"assembled matrix must be {n * n} x {n * n}")
    return BlockMatrix(rho.reshape(n, n, n, n).transpose(0, 2, 1, 3))


def rho_a(t: MatrixTuple) -> BlockMatrix:
    """The block-diagonal Pascal matrix rho_A = sum_i E_ii (x) A_i of a
    tuple: ``assemble_separable`` of the pairs (E_ii, A_i), whose blocks are
    delta_ij A_i."""
    units = np.eye(t.n)[:, :, None] * np.eye(t.n)[:, None, :]  # units[i] = E_ii
    return assemble_separable(SeparableSpec(terms=tuple(zip(units, t.matrices))))


def pencil_to_doc(p: HyperbolicPencil) -> dict:
    """The pencil document ``hyp`` reads."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pencil",
        "n": p.degree,
        "m": p.m,
        "matrices": matrix_to_doc(p.matrices),
        "e": p.e.tolist(),
    }


def is_e_nonnegative(pencil: HyperbolicPencil, x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the roots of p(x - lambda e) pass the one PSD rule,
    ``core._psd``, with the largest |root| as the scale: the smallest root is
    at least -psd_tol times it, so scaling x by c > 0 changes no verdict."""
    lam = roots(pencil, x).lam[::-1]
    return bool(_psd(lam, max(-lam[0], lam[-1]), tol))


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
