"""Indecomposability tests and block decomposition.

The two rank tests read n generic vectors from the slot ranges
(``_generic_ranks``), in polynomial time at every n, and that is the one
reading of a tight set.  They run on a (B, n, n, n) stack and its slots'
eigenvalues (``_rank_tests``): :func:`is_indecomposable` and
:func:`positivity_rank_test` are its one-tuple calls, and the scaling
precondition (``capacity._scale_stack``) its stack call.  ``_peel``
peels their certified witnesses, minimal tight sets, off any PSD tuple
until the remainder is indecomposable, and raises ``SingularPencil`` where
the weak rank condition fails; it has two readers, :func:`decompose`, on a
doubly stochastic tuple (its product check's ``eval_polarized`` gates it at
n <= 20), and ``capacity.capacity``, which multiplies the parts'
capacities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _EPS,
    DEFAULT_TOL,
    NotDoublyStochastic,
    NumericalInconsistency,
    PreconditionViolated,
    SingularPencil,
    Tolerances,
    _eigh,
    _one,
    _psd,
    _rank_of_eigenvalues,
    make_rng,
    random_complex_gaussian,
    rank_psd,
)
from .discriminant import (
    MatrixTuple,
    _slot_eigenvalues,
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


def _generic_ranks(mats: np.ndarray, ranks: np.ndarray, tol: Tolerances):
    """(weak rank condition holds, certified witness subset or None) of one
    PSD (n, n, n) tuple whose slot ranks ``ranks`` are not all n, from n
    generic vectors, or the ``NumericalInconsistency`` of a witness that
    fails its certification.

    u_i = F_i g_i and v_j = F_j h_j, with F_i slot i's top rank_i
    eigenvectors (one batched ``_eigh``) and g, h from
    ``make_rng(_DRAW_SEED)``.  For generic draws U = [u_1 .. u_n] is
    nonsingular exactly when every rank(sum_S A_i) >= |S| (Edmonds 1967;
    Gurvits 2004), and then the support of column j of X = U^-1 V is the
    smallest S containing j with rank(sum_S A_i) = |S|.  By one SVD of U,
    with f = 1e3 n u (u the unit round-off): U is singular when
    s_min <= f s_max, and an entry of a column of X, or of U's null vector,
    is in its support above f cond times the column's largest, cond being
    s_max over the smallest singular value above f s_max (of the n - 1
    largest, for the null vector).  Each witness is certified on the slot
    ranges the supports read, from the eigenvectors of the same solve, by
    r(S) = ``rank_psd`` of sum_{i in S} F_i F_i^*; the raw sum of S would
    count together eigenvalues that each slot drops below rank_tol.  A
    nonsingular U's witness is the smallest proper support of X (ties to
    its smallest slot), certified by r(S) <= |S|.  A singular U's, or that
    of a nonsingular U whose witness fails (s_min just above f s_max, say,
    so that X reads noise), is the null vector's support S, certified by
    r(S) < |S|, so a broken weak rank condition is never read without a
    subset that breaks it; it is reported as all slots but the last where
    S is every slot.
    """
    n = len(mats)
    top = np.arange(n) >= n - ranks[:, None]  # eigenvalues are ascending
    coef = random_complex_gaussian((2, n, n), make_rng(_DRAW_SEED)) * top
    vecs = _eigh(mats)[1]
    u, v = np.einsum("iab,kib->kai", vecs, coef)
    w, s, vh = np.linalg.svd(u)
    f = 1e3 * n * _EPS / 2
    live = int((s > f * s[0]).sum())

    def supports(x, k):
        mag = np.abs(x)
        cut = f * s[0] / s[k - 1] if k else f
        return [tuple(np.flatnonzero(c).tolist()) for c in (mag > cut * mag.max(0)).T]

    def rank(sup):
        g = vecs[list(sup)] * top[list(sup), None]
        return rank_psd((g @ g.conj().swapaxes(1, 2)).sum(0), tol)

    if live == n:
        proper = [sup for sup in supports(vh.conj().T @ (w.conj().T @ v / s[:, None]), n) if len(sup) < n]
        witness = min(proper, key=lambda sup: (len(sup), sup), default=None)
        if witness is None or rank(witness) <= len(witness):
            return True, witness
    (null,) = supports(vh[-1:].conj().T, min(live, n - 1))
    r = rank(null)
    if r < len(null):  # at n = 1 the only support is every slot: no witness
        return False, (null if len(null) < n else tuple(range(n - 1))) or None
    return NumericalInconsistency(
        f"witness subset {null} is {'not tight' if r > len(null) else 'tight, not rank-deficient'}"
    )


def _rank_tests(mats: np.ndarray, w: np.ndarray, tol: Tolerances) -> list:
    """The two rank tests of each tuple of a (B, n, n, n) stack whose slots
    have the ascending eigenvalues w (B, n, n): per tuple (weak rank
    condition holds, certified witness or None), or its
    ``PreconditionViolated`` or ``NumericalInconsistency``.

    The eigenvalues decide the PSD rule (``core._psd`` at the tuple's largest
    |entry|) and the slot ranks, so every PSD tuple of slots all of rank n,
    such as a Wishart draw, answers at once: a slot has rank n exactly when
    its smallest eigenvalue is above rank_tol times its largest, which is
    ``core._rank_of_eigenvalues`` on ascending eigenvalues.  Each other
    tuple is ranked and read by ``_generic_ranks`` alone, on its own draw of
    the fixed seed, so a tuple's verdict does not depend on its stack.
    """
    psd = _psd(w, np.abs(mats).max((1, 2, 3))[:, None], tol)
    out = [(True, None)] * len(mats)
    for j in (~(psd & (w[..., 0] > tol.rank_tol * w[..., -1])).all(1)).nonzero()[0]:
        out[j] = (
            _generic_ranks(mats[j], _rank_of_eigenvalues(w[j], tol), tol) if psd[j].all()
            else PreconditionViolated(f"tuple is not PSD (smallest eigenvalue {w[j].min():.3e})")
        )
    return out


def is_indecomposable(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL):
    """Strict rank test over all proper subsets: rank(sum_{i in S} A_i) > |S|.

    Returns (True, None) or (False, witness) with the certified proper
    subset S of ``_rank_tests``, not necessarily the smallest: its one-tuple
    call, on the memoized slot eigenvalues (``_slot_eigenvalues``).
    """
    witness = _one(_rank_tests(t.matrices[None], _slot_eigenvalues(t)[None], tol))[1]
    return witness is None, witness


def positivity_rank_test(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Weak rank condition rank(sum_{i in S} A_i) >= |S| over all subsets S,
    all n slots included: the one-tuple call of ``_rank_tests``, on the
    memoized slot eigenvalues; equivalent to D(t) > 0 for PSD tuples."""
    return _one(_rank_tests(t.matrices[None], _slot_eigenvalues(t)[None], tol))[0]


def _peel(mats: np.ndarray, w: np.ndarray, tol: Tolerances) -> list:
    """The parts of a PSD (n, n, n) stack whose slots have the ascending
    eigenvalues w: a list of (slot indices, orthonormal basis (n, k)), the
    peeled parts in peeling order and the remainder last.

    Each round reads the remaining slots by ``_rank_tests`` and peels its
    certified witness S, the smallest proper support of X = U^-1 V, so a
    minimal tight set: S is a part on the top |S| eigenvectors of its sum V,
    the other slots are compressed to the remaining eigenvectors W, and the
    round repeats until the remainder is indecomposable.  Tightness is thus
    read as the scaling precondition reads it.  The bases come from the raw
    compressed slots; the rank tests read them symmetrized.  A tuple with no
    tight set is its own single part, with the identity basis, and full-rank
    slots answer on w alone.  Raises ``PreconditionViolated`` where the
    slots fail the PSD rule, ``SingularPencil`` where the weak rank
    condition fails (Cap = D = 0) or where a peeled slot's dropped complement
    W^* A_i W has an eigenvalue below -m^2 eps times the slot's largest (m
    the remaining dimension): the slot is then not PSD, which a loose
    ``psd_tol`` let pass, and Cap = 0.  ``NumericalInconsistency`` where a
    witness fails its certification.
    """
    found, slots, basis, sym = [], np.arange(len(mats)), np.eye(len(mats), dtype=np.complex128), mats
    while True:
        weak, witness = _one(_rank_tests(sym[None], w[None], tol))
        if not weak:
            singular = rank_psd(mats.sum(0), tol) < len(mats)
            what = "sum A_i is singular" if singular else "rank(sum_S A_i) < |S| for some S"
            raise SingularPencil(f"{what}; the tuple violates the weak rank condition")
        if witness is None:
            return [*found, (slots, basis)]
        m, k, inside = len(mats), len(witness), np.isin(np.arange(len(slots)), witness)
        v = _eigh(mats[inside].sum(0))[1][:, ::-1]
        dropped = _eigh(v[:, k:].conj().T @ mats[inside] @ v[:, k:], vectors=False)[:, 0]
        if (dropped < -m * m * _EPS * w[inside, -1]).any():
            raise SingularPencil(f"a slot of tight set {witness} is not PSD off its range ({dropped.min():.3e})")
        found.append((slots[inside], basis @ v[:, :k]))
        slots, basis = slots[~inside], basis @ v[:, k:]
        mats = v[:, k:].conj().T @ mats[~inside] @ v[:, k:]
        sym = (mats + mats.conj().swapaxes(1, 2)) / 2.0
        w = _eigh(sym, vectors=False)


def decompose(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DecompositionResult:
    """Indecomposable block decomposition of a doubly stochastic tuple: the
    parts of ``_peel``, in order of smallest slot, each with its compressed
    tuple.

    Raises ``NotDoublyStochastic`` unless ``check_doubly_stochastic`` holds
    (its PSD rule is the one the rank tests read), and
    ``NumericalInconsistency`` when a witness fails its certification or
    D(t) = prod of block discriminants fails.  An indecomposable t is
    its own single part, so D is computed once for the check
    (``eval_polarized`` keeps it) and read twice.
    """
    report = check_doubly_stochastic(t, tol)
    if not report.is_doubly_stochastic:
        raise NotDoublyStochastic(f"input is not doubly stochastic: {report}")
    d_total = eval_polarized(t)
    found = _peel(t.matrices, _slot_eigenvalues(t), tol)
    if len(found) == 1:
        parts = [(tuple(range(t.n)), found[0][1], t)]
    else:
        parts = [
            (tuple(idx.tolist()), u, MatrixTuple(u.conj().T @ t.matrices[idx] @ u))
            for idx, u in sorted(found, key=lambda part: part[0][0])
        ]
    d_prod = math.prod(eval_polarized(sub) for _, _, sub in parts)
    product_check = abs(d_total - d_prod)
    if product_check > 1e-8 * (1.0 + abs(d_total)):
        raise NumericalInconsistency(
            f"product identity off by {product_check:.3e} "
            f"(D = {d_total:.12g}, prod = {d_prod:.12g})"
        )
    return DecompositionResult(parts=parts, product_check=product_check)
