"""4-dimensional Pascal determinants QP on n x n block matrices.

Two defining formulas are implemented: the signed sum of mixed discriminants
over block-column permutations (qp_block) and the quadruple permutation sum
over the 4-index tensor form (qp_tensor).  The block-to-tensor convention is
rho(i1, i2, i3, i4) = A_{i1, i3}(i2, i4), locked by brute-force agreement of
the two formulas at n = 2 (see tests); if agreement ever breaks the
convention must be revisited, not patched.  Both random block doubly
stochastic samplers (sum_i A_ii = I, [tr A_ij] = I) run one operator-scaling
loop on the Kraus form of rho, ``_scale_kraus``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    TermNotPsd,
    Tolerances,
    as_hermitian,
    fsum_complex,
    inv_sqrt_psd,
    make_rng,
    max_abs,
    psd_violation,
    random_complex_gaussian,
)
from .discriminant import _as_real, _double_perm_raw, _perms_and_signs, _polarized_raw

_GATE_QP_BLOCK = 6
_GATE_QP_TENSOR = 4
_SAMPLER_MAX_ITER = 500  # alternating scaling rounds of _scale_kraus


class BlockMatrix:
    """n^2 x n^2 matrix viewed as an n x n grid of n x n complex blocks.

    ``blocks`` is one read-only complex (n, n, n, n) array; ``blocks[i][j]``
    (equivalently ``blocks[i, j]``) is the block A_{i,j}.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, blocks):
        grid = np.array(blocks, dtype=np.complex128)
        n = len(grid)
        if grid.shape != (n, n, n, n):
            raise ValueError(f"expected an n x n grid of n x n blocks, got shape {grid.shape}")
        grid.flags.writeable = False
        self.n = n
        self.blocks = grid

    @classmethod
    def from_assembled(cls, rho, n: int) -> "BlockMatrix":
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (n * n, n * n):
            raise ValueError(f"assembled matrix must be {n * n} x {n * n}")
        return cls(rho.reshape(n, n, n, n).transpose(0, 2, 1, 3))

    def assembled(self) -> np.ndarray:
        n = self.n
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * n, n * n)

    def tensor4(self) -> np.ndarray:
        """rho(i1, i2, i3, i4) = A_{i1, i3}(i2, i4); the frozen convention."""
        n = self.n
        return self.assembled().reshape(n, n, n, n)

    def trace_matrix(self) -> np.ndarray:
        return np.trace(self.blocks, axis1=2, axis2=3)


@dataclass(frozen=True)
class BlockDsReport:
    psd_violation: float
    sum_violation: float
    trace_violation: float
    passes: bool


@dataclass(frozen=True)
class SeparableSpec:
    """rho = sum_k P_k (x) Q_k with every factor PSD."""

    terms: tuple


def qp_block(rho: BlockMatrix) -> float:
    """QP as the signed sum over sigma of D(A_{1,sigma(1)}, .., A_{n,sigma(n)})."""
    n = rho.n
    if n > _GATE_QP_BLOCK:
        raise DimensionTooLarge(f"qp_block gated at n <= {_GATE_QP_BLOCK}")
    perms, signs = _perms_and_signs(n)
    # One kernel call over the n! tuples (A_{1,sigma(1)}, .., A_{n,sigma(n)}).
    totals = signs * _polarized_raw(rho.blocks[np.arange(n), perms])
    return _as_real(fsum_complex(totals))


def qp_tensor(rho: BlockMatrix) -> float:
    """QP as (1/n!) sum over four permutations of the signed tensor product.

    For fixed (tau1, tau2) the inner double sum is itself a signed double
    permutation sum of gathered slices, which keeps the (n!)^4 cost usable.
    """
    n = rho.n
    if n > _GATE_QP_TENSOR:
        raise DimensionTooLarge(f"qp_tensor gated at n <= {_GATE_QP_TENSOR}")
    t4 = rho.tensor4()
    perms, signs = _perms_and_signs(n)
    fact = len(perms)
    totals = np.empty(fact * fact, dtype=np.complex128)
    pos = 0
    for s1, tau1 in enumerate(perms):
        for s2, tau2 in enumerate(perms):
            totals[pos] = signs[s1] * signs[s2] * _double_perm_raw(t4[tau1, tau2])
            pos += 1
    return _as_real(fsum_complex(totals) / fact)


def check_block_ds(rho: BlockMatrix, tol: Tolerances = DEFAULT_TOL) -> BlockDsReport:
    """Violations of the three block doubly stochastic conditions."""
    eye = np.eye(rho.n)
    psd_v = psd_violation(as_hermitian(rho.assembled(), tol=np.inf))
    sum_v = max_abs(np.trace(rho.blocks) - eye)
    trace_v = max_abs(rho.trace_matrix() - eye)
    passes = psd_v <= tol.ds_tol and sum_v <= tol.ds_tol and trace_v <= tol.ds_tol
    return BlockDsReport(psd_v, sum_v, trace_v, passes)


def assemble_separable(spec: SeparableSpec, tol: Tolerances = DEFAULT_TOL) -> BlockMatrix:
    """Blocks A_{i,j} = sum_k P_k(i, j) Q_k; PSD by construction."""
    if not spec.terms:
        raise ValueError("need at least one separable term")
    pq = np.array(spec.terms, dtype=np.complex128)  # pq[k] is (P_k, Q_k)
    n = pq.shape[-1]
    if pq.shape[1:] != (2, n, n):
        raise ValueError("all factors must share one dimension")
    lowest = np.linalg.eigvalsh(as_hermitian(pq, tol=1e-8))[..., 0]
    not_psd = lowest < -tol.psd_tol * (1.0 + np.abs(pq).max(axis=(-2, -1)))
    if not_psd.any():
        raise TermNotPsd(f"{'PQ'[np.argwhere(not_psd)[0][1]]} factor is not PSD")
    p, q = pq[:, 0], pq[:, 1]
    return BlockMatrix((p[:, :, :, None, None] * q[:, None, None]).sum(0))


def _scale_kraus(k: np.ndarray, tol: Tolerances):
    """Operator scaling (Gurvits 2004) of rho = sum_r vec(K_r) vec(K_r)* to block DS.

    ``k`` is an (m, n, n) stack; entry (a, i) of K_r sits in block row a, row i.
    I (x) S maps K_r to K_r S^T and S (x) I maps it to S K_r, so rho stays
    Hermitian PSD.  Returns (rho, L, R) with rho = (L (x) R) rho_0 (L (x) R)*, or
    None after ``_SAMPLER_MAX_ITER`` steps.
    """
    n = k.shape[-1]
    eye = left = right = np.eye(n)
    for _ in range(_SAMPLER_MAX_ITER):
        bm = BlockMatrix(np.einsum("rai,rbj->abij", k, k.conj()))
        diag_sum = np.trace(bm.blocks)
        if max_abs(diag_sum - eye) + max_abs(bm.trace_matrix() - eye) <= tol.ds_tol:
            return bm, left, right
        s = inv_sqrt_psd(diag_sum, tol)
        k, right = k @ s.T, s @ right
        s = inv_sqrt_psd(np.einsum("rai,rbi->ab", k, k.conj()), tol)
        k, left = s @ k, s @ left
    return None


def sample_separable_ds(n: int, seed: int, tol: Tolerances = DEFAULT_TOL):
    """One random separable block-DS matrix and its witness, or None if scaling fails.

    rho = sum_t P_t (x) Q_t with Wishart factors P_t = G_t G_t*, Q_t = H_t H_t*.
    Its Kraus operators g h^T, over the columns g of G_t and h of H_t, stay
    rank one, so the witness is the pairs (L G_t)(L G_t)*, (R H_t)(R H_t)*.
    """
    rng = make_rng(seed)
    k = int(rng.integers(1, n * n + 1))
    g = np.array([random_complex_gaussian(n, rng) for _ in range(2 * k)]).reshape(k, 2, n, n)
    res = _scale_kraus(np.einsum("tac,tid->tcdai", g[:, 0], g[:, 1]).reshape(-1, n, n), tol)
    if res is None:
        return None
    w = np.array(res[1:]) @ g  # w[t] = (L G_t, R H_t)
    pq = w @ w.conj().swapaxes(-1, -2)
    return res[0], SeparableSpec(terms=tuple(zip(pq[:, 0], pq[:, 1])))


def sample_block_ds(n: int, seed: int, tol: Tolerances = DEFAULT_TOL):
    """One random (not necessarily separable) block-DS matrix, or None.

    rho = G G* for an n^2 x n^2 complex Gaussian G; its Kraus operators are
    the columns of G.
    """
    res = _scale_kraus(random_complex_gaussian(n * n, make_rng(seed)).T.reshape(-1, n, n), tol)
    return None if res is None else res[0]
