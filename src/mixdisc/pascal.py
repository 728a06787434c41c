"""4-dimensional Pascal determinants QP on n x n block matrices.

Two defining formulas are implemented: the signed sum of mixed discriminants
over block-column permutations (qp_block) and the quadruple permutation sum
over the 4-index tensor form (qp_tensor).  The block-to-tensor convention is
rho(i1, i2, i3, i4) = A_{i1, i3}(i2, i4), locked by brute-force agreement of
the two formulas at n = 2 (see tests); if agreement ever breaks the
convention must be revisited, not patched.  Both random block doubly
stochastic samplers (sum_i A_ii = I, [tr A_ij] = I) run one operator-scaling
loop on the Kraus form of rho, ``_scale_kraus``.  The loop keeps the Kraus
operators as one C-contiguous (n, m, n) stack, kt[a, r, i] = (K_r)_{ai},
whose tall (n m, n) and wide (n, m n) reshapes share its buffer, so each
half-step is one 2-D GEMM for its Gram sum, one ``inv_sqrt_psd``, one 2-D
GEMM for the update and one n x n product for the accumulated factor.  The
trace Gram of the stop test is formed only once the diagonal block sum is
within the stop of ``core._ds_limit``, ``ds_tol`` floored at 4 n eps, the
rounding of the defects.  The loop reports why it stopped ("ds_tol" or
"roundoff", by ``core._ds_stop_reason``), its steps and its final defect;
at the step cap it raises ``NonConvergence`` carrying that report
("max_iter"), as the tuple scaling of ``capacity`` does, and its message
names the steps and the defect.  ``check_block_ds`` holds its violations
to the verdict limit of the same rule.
Each sampler draws its Gaussian factors from one ``make_rng(seed)``, by one
``random_complex_gaussian`` call: the n^2 x n^2 factor of
``sample_block_ds``, and the (k, 2, n, n) stack of ``sample_separable_ds``
after its term count k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    NonConvergence,
    TermNotPsd,
    Tolerances,
    _ds_limit,
    _ds_stop_reason,
    _eigh,
    _gate,
    _psd,
    as_hermitian,
    fsum_complex,
    inv_sqrt_psd,
    make_rng,
    max_abs,
    psd_violation,
    random_complex_gaussian,
    require_finite,
)
from .discriminant import _as_real, _perms_and_signs, _polarized_raw

_GATE_QP_BLOCK = 6
_GATE_QP_TENSOR = 4
_SAMPLER_MAX_ITER = 500  # alternating scaling rounds of _scale_kraus


class BlockMatrix:
    """n^2 x n^2 matrix viewed as an n x n grid of n x n complex blocks.

    ``blocks`` is one read-only complex (n, n, n, n) array; ``blocks[i][j]``
    (equivalently ``blocks[i, j]``) is the block A_{i,j}.  The assembled
    matrix is held to ``hermitian_tol`` and symmetrized (``as_hermitian``),
    as a tuple's slots are, so ``assembled()`` is exactly Hermitian; a grid
    the samplers or ``assemble_separable`` build is already, bit for bit.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, blocks, tol: Tolerances = DEFAULT_TOL):
        grid = np.asarray(blocks, dtype=np.complex128)
        n = len(grid)
        if grid.shape != (n, n, n, n):
            raise ValueError(f"expected an n x n grid of n x n blocks, got shape {grid.shape}")
        require_finite(grid, "block matrix")
        rho = as_hermitian(grid.transpose(0, 2, 1, 3).reshape(n * n, n * n), tol.hermitian_tol)
        grid = np.ascontiguousarray(rho.reshape(n, n, n, n).transpose(0, 2, 1, 3))
        grid.flags.writeable = False
        self.n = n
        self.blocks = grid

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
    limit: float
    passes: bool


@dataclass(frozen=True)
class SeparableSpec:
    """rho = sum_k P_k (x) Q_k with every factor PSD."""

    terms: tuple


def qp_block(rho: BlockMatrix) -> float:
    """QP as the signed sum over sigma of D(A_{1,sigma(1)}, .., A_{n,sigma(n)})."""
    n = rho.n
    _gate(n, _GATE_QP_BLOCK, "qp_block")
    perms, signs = _perms_and_signs(n)
    # One kernel call over the n! tuples (A_{1,sigma(1)}, .., A_{n,sigma(n)}).
    totals = signs * _polarized_raw(rho.blocks[np.arange(n), perms])
    return _as_real(fsum_complex(totals))


def qp_tensor(rho: BlockMatrix) -> float:
    """QP as (1/n!) sum over four permutations of the signed tensor product,
    sgn(tau1 tau2 sigma tau) prod_i rho(tau1(i), tau2(i), sigma(i), tau(i)).

    The products are gathered one leading tau1 at a time, (n!)^3 n entries
    (0.9 MB at n = 4), and all (n!)^4 terms go into one compensated sum.
    """
    n = rho.n
    _gate(n, _GATE_QP_TENSOR, "qp_tensor")
    t4 = rho.tensor4()
    perms, signs = _perms_and_signs(n)
    fact = len(perms)
    rest = perms[:, None, None], perms[None, :, None], perms[None, None, :]
    rest_signs = signs[:, None, None] * signs[None, :, None] * signs[None, None, :]
    terms = np.empty((fact, fact, fact, fact), dtype=np.complex128)
    for s1, tau1 in enumerate(perms):
        terms[s1] = signs[s1] * rest_signs * t4[(tau1, *rest)].prod(axis=-1)
    return _as_real(fsum_complex(terms) / fact)


def check_block_ds(rho: BlockMatrix, tol: Tolerances = DEFAULT_TOL) -> BlockDsReport:
    """Violations of the three block doubly stochastic conditions; the
    verdict holds each to the one limit ``core._ds_limit(n, tol)``, which
    the report carries as ``limit``."""
    eye = np.eye(rho.n)
    psd_v = psd_violation(rho.assembled())
    sum_v = max_abs(np.trace(rho.blocks) - eye)
    trace_v = max_abs(rho.trace_matrix() - eye)
    limit = _ds_limit(rho.n, tol)
    return BlockDsReport(psd_v, sum_v, trace_v, limit, max(psd_v, sum_v, trace_v) <= limit)


def assemble_separable(spec: SeparableSpec, tol: Tolerances = DEFAULT_TOL) -> BlockMatrix:
    """Blocks A_{i,j} = sum_k P_k(i, j) Q_k; PSD by construction."""
    if not spec.terms:
        raise ValueError("need at least one separable term")
    # Each term's length and each factor's shape before numpy stacks them,
    # which would refuse a ragged stack with a message of its own.
    shapes = [(len(term), *np.shape(f)) for term in spec.terms for f in term]
    if len(shapes) != 2 * len(spec.terms) or any(s != (2, shapes[0][-1], shapes[0][-1]) for s in shapes):
        raise ValueError("all factors must share one dimension")
    # pq[k] is (P_k, Q_k), symmetrized, so that rho is exactly Hermitian.
    pq = as_hermitian(np.array(spec.terms, dtype=np.complex128), tol.hermitian_tol)
    w = _eigh(pq, vectors=False)
    not_psd = ~_psd(w, np.abs(pq).max(axis=(-2, -1)), tol)
    if not_psd.any():
        raise TermNotPsd(f"{'PQ'[np.argwhere(not_psd)[0][1]]} factor is not PSD")
    p, q = pq[:, 0], pq[:, 1]
    return BlockMatrix((p[:, :, :, None, None] * q[:, None, None]).sum(0))


@dataclass(frozen=True)
class _KrausScaling:
    """How ``_scale_kraus`` stopped: ``stop_reason`` "ds_tol" when the sum of
    the two Gram-sum defects is within ``ds_tol``, "roundoff" when it is
    within the stop's 4 n eps floor only (``core._ds_stop_reason``),
    "max_iter" at the step cap (carried by ``NonConvergence``); the steps
    taken, that sum after them (``defect``), and rho, L and R, with rho None
    at the cap."""

    stop_reason: str
    steps: int
    defect: float
    rho: BlockMatrix | None
    left: np.ndarray
    right: np.ndarray


def _scale_kraus(kt: np.ndarray, tol: Tolerances) -> _KrausScaling:
    """Operator scaling (Gurvits 2004) of rho = sum_r vec(K_r) vec(K_r)* to block DS.

    ``kt`` is one C-contiguous (n, m, n) stack with kt[a, r, i] = (K_r)_{ai}:
    entry (a, i) of K_r sits in block row a, row i.  I (x) S maps K_r to
    K_r S^T and S (x) I maps it to S K_r, so rho stays Hermitian PSD.  Two
    reshapes of the one buffer make each half-step two 2-D GEMMs: the tall
    view (n m, n) gives the diagonal block sum sum_r K_r^T conj(K_r) as
    tall^T conj(tall) and K_r S^T as tall S^T; the wide view (n, m n) gives
    the trace matrix sum_r K_r K_r* as wide wide* and S K_r as S wide.  The
    stop test needs both Gram sums within the stop in sum, so the trace
    matrix is formed at the top of a step only once the diagonal block sum
    alone passes.  The stop, ``core._ds_limit(n, tol, stop=True)``, is never
    below 4 n eps, the rounding of the two defects, under which a draw may
    never get (their sum came down to at most 1.1 n eps on 20 seeded draws
    each at n = 2..4): a smaller ``ds_tol`` would run every draw to the cap.
    Returns the ``_KrausScaling`` with rho = (L (x) R) rho_0 (L (x) R)*, rho
    assembled only on a stop within ``stop``; raises ``NonConvergence``
    carrying one with rho None after ``_SAMPLER_MAX_ITER`` steps.
    """
    n, m = kt.shape[:2]
    stop = _ds_limit(n, tol, stop=True)
    eye = left = right = np.eye(n)
    for steps in range(_SAMPLER_MAX_ITER):
        tall = kt.reshape(n * m, n)
        diag_sum = tall.T @ tall.conj()
        defect = max_abs(diag_sum - eye)
        if defect <= stop:
            wide = kt.reshape(n, m * n)
            defect += max_abs(wide @ wide.conj().T - eye)
            if defect <= stop:
                rho = BlockMatrix(np.einsum("ari,brj->abij", kt, kt.conj()))
                return _KrausScaling(_ds_stop_reason(defect, tol), steps, defect, rho, left, right)
        s = inv_sqrt_psd(diag_sum, tol)
        wide, right = (tall @ s.T).reshape(n, m * n), s @ right
        s = inv_sqrt_psd(wide @ wide.conj().T, tol)
        kt, left = (s @ wide).reshape(n, m, n), s @ left
    tall, wide = kt.reshape(n * m, n), kt.reshape(n, m * n)
    defect = max_abs(tall.T @ tall.conj() - eye) + max_abs(wide @ wide.conj().T - eye)
    raise NonConvergence(
        f"block doubly stochastic scaling hit max_iter after {_SAMPLER_MAX_ITER} steps"
        f" with defect {defect:.3e}",
        result=_KrausScaling("max_iter", _SAMPLER_MAX_ITER, defect, None, left, right),
    )


def sample_separable_ds(n: int, seed: int, tol: Tolerances = DEFAULT_TOL):
    """One random separable block-DS matrix and its witness.

    rho = sum_t P_t (x) Q_t with Wishart factors P_t = G_t G_t*, Q_t = H_t H_t*
    (the draw of :func:`_separable_draw`).  Its Kraus operators g h^T, over
    the columns g of G_t and h of H_t, stay rank one, so the witness is the
    pairs (L G_t)(L G_t)*, (R H_t)(R H_t)*.  Raises ``NonConvergence`` where
    the scaling hits its step cap.
    """
    scaling, g = _separable_draw(n, seed, tol)
    w = np.array((scaling.left, scaling.right)) @ g  # w[t] = (L G_t, R H_t)
    pq = w @ w.conj().swapaxes(-1, -2)
    return scaling.rho, SeparableSpec(terms=tuple(zip(pq[:, 0], pq[:, 1])))


def _separable_draw(n: int, seed: int, tol: Tolerances):
    """The scaled separable draw of ``sample_separable_ds`` with the factors
    its witness is built from: (its ``_KrausScaling``, g), g[t] = (G_t, H_t).
    The command line takes rho from here and builds no witness."""
    rng = make_rng(seed)
    k = int(rng.integers(1, n * n + 1))
    g = random_complex_gaussian((k, 2, n, n), rng)
    return _scale_kraus(np.einsum("tac,tid->atcdi", g[:, 0], g[:, 1]).reshape(n, -1, n), tol), g


def sample_block_ds(n: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> BlockMatrix:
    """One random (not necessarily separable) block-DS matrix.

    rho = G G* for an n^2 x n^2 complex Gaussian G; its Kraus operators are
    the columns of G.  Raises ``NonConvergence`` where the scaling hits its
    step cap.
    """
    g = random_complex_gaussian(n * n, make_rng(seed)).reshape(n, n, n * n)
    return _scale_kraus(np.ascontiguousarray(g.transpose(0, 2, 1)), tol).rho
