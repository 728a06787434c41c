"""Mixed discriminant evaluators, gradients, and tuple predicates.

The production evaluator is :func:`eval_polarized`: the centered
polarization D = 2^(1-n) sum over eps in {+-1}^n with eps_n = +1 of
prod(eps) det(sum eps_i A_i) (the mixed-discriminant form of Glynn's
permanent formula).  One chunked eps-enumeration kernel also gives Glynn
permanents (:func:`permanent`), the gradients Q_i from adjugates
(:func:`gradient`) and the hyperbolic mixed values.  From n = 8 on the kernel
groups bitwise-equal slots (rows): a tuple whose groups have free_g free
signs costs prod_g (free_g + 1) determinants instead of 2^(n-1), so J_n and
D(P/n, .., P/n) take n, and a tuple of distinct slots still takes 2^(n-1).
The kernel's sum of |terms| keeps its meaning, the ungrouped sum.  The
permutation-sum formulas are kept as independent oracles behind hard
dimension gates:

* :func:`eval_sigma_det`     -- sum over sigma of det(A_sigma), n <= 10
* :func:`eval_double_perm`   -- signed double permutation sum, n <= 6
* :func:`eval_signed_permanent` -- signed sum of permanents, n <= 7
* :func:`eval_tensor`        -- antisymmetrizer inner product, n <= 6

All of them agree (relative 1e-8) on Hermitian PSD tuples; tests enforce it.
The production evaluator keeps that accuracy up to its gate n = 20: on
J_n = (I/n, .., I/n) its relative error stays below 1e-12 for n <= 20.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    NumericalInconsistency,
    PreconditionViolated,
    Tolerances,
    as_hermitian,
    fsum_complex,
    max_abs,
    psd_violation,
)

_GATE_SIGMA_DET = 10
_GATE_DOUBLE_PERM = 6
_GATE_SIGNED_PERM = 7
_GATE_TENSOR = 6
_GATE_POLARIZED = 20
_GATE_PERMANENT = 20

_DET_CHUNK = 8192
# Slot count from which the centered kernel groups repeated slots (see
# _eps_combinations for why not below).
_GROUP_MIN_N = 8
# Relative agreement demanded of the two exchange_value routes.
_EXCHANGE_CHECK_REL = 1e-8


class MatrixTuple:
    """Ordered n-tuple of n x n Hermitian matrices (square tuples only).

    ``matrices`` is one read-only complex (n, n, n) array whose slice
    ``matrices[i]`` is A_i; iterating the tuple yields the slices.
    """

    __slots__ = ("n", "matrices")

    def __init__(self, matrices, tol: Tolerances = DEFAULT_TOL):
        mats = as_hermitian(matrices, tol.hermitian_tol)
        if mats.ndim != 3 or not mats.size:
            raise ValueError(f"expected a nonempty stack of matrices, got shape {mats.shape}")
        n = mats.shape[-1]
        if len(mats) != n:
            raise ValueError(
                f"tuple length {len(mats)} must equal matrix dimension {n}"
            )
        mats.flags.writeable = False
        self.n = n
        self.matrices = mats

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def __len__(self):
        return self.n

    def replaced(self, i: int, m) -> "MatrixTuple":
        """Copy with slot ``i`` replaced by ``m``."""
        mats = list(self.matrices)
        mats[i] = m
        return MatrixTuple(mats)

    def scale_of(self) -> float:
        return max_abs(self.matrices)


@dataclass(frozen=True)
class DiscriminantGradient:
    """Gradient matrices Q_i with D(A_1,..,X,..,A_n) = tr(X Q_i), plus D itself."""

    Q: np.ndarray  # (n, n, n): Q[i] is Q_i
    value: float


@dataclass(frozen=True)
class DsTupleReport:
    """Deviation of a tuple from the doubly stochastic conditions."""

    psd_violation: float
    trace_violation: float
    sum_violation: float
    is_doubly_stochastic: bool


def _as_real(z, tol_scale: float = 1e-9):
    """The real part of a value, or of an array of values, whose imaginary
    residues all satisfy |Im z| <= tol_scale * (1 + |z|); NumericalInconsistency
    otherwise.  A scalar comes back as a float, an array as its real array."""
    if isinstance(z, np.ndarray) and z.ndim:
        bad = np.abs(z.imag) > tol_scale * (1.0 + np.abs(z))
        if bad.any():
            _as_real(z[bad][0], tol_scale)  # raises on the first such value
        return z.real
    z = complex(z)
    if abs(z.imag) > tol_scale * (1.0 + abs(z)):
        raise NumericalInconsistency(
            f"value {z!r} has imaginary residue above {tol_scale:g} gate"
        )
    return z.real


def _perm_signs(perms: np.ndarray) -> np.ndarray:
    """+1 or -1 for each row of a (k, n) permutation array, by inversion count."""
    inv = np.zeros(len(perms), dtype=np.int64)
    for i in range(perms.shape[1]):
        for j in range(i + 1, perms.shape[1]):
            inv += perms[:, i] > perms[:, j]
    return np.where(inv % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=16)
def _perms_and_signs(n: int):
    """All permutations of range(n) as an (n!, n) array with their signs."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    if n == 0:
        perms = perms.reshape(1, 0)
    signs = _perm_signs(perms)
    perms.flags.writeable = False
    signs.flags.writeable = False
    return perms, signs


def _iter_perm_chunks(n: int):
    """S_n as (k, n) arrays of at most ``_DET_CHUNK`` permutations: slices of
    the cached table up to n = 8, generated chunk by chunk above."""
    if n <= 8:
        perms = _perms_and_signs(n)[0]
        for lo in range(0, len(perms), _DET_CHUNK):
            yield perms[lo : lo + _DET_CHUNK]
        return
    it = itertools.permutations(range(n))
    while block := list(itertools.islice(it, _DET_CHUNK)):
        yield np.array(block, dtype=np.int8)


def _gate(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise DimensionTooLarge(f"{what} is gated at n <= {limit}, got n = {n}")


def _count_vectors(sizes: tuple, free: tuple, c: np.ndarray):
    """Coefficients, weights and per-group mean signs of the count vectors
    ``c`` (one per row) of groups of ``sizes`` equal slots, ``free`` of whose
    signs are free (all of them, or all but slot n-1's).

    c_g in 0..free[g] counts the -1 signs among the free slots of group g.
    The class of eps with counts c has the combination sum_g (k_g - 2 c_g) B_g
    (k_g = sizes[g]), the weight (-1)^(sum c) prod_g C(free[g], c_g), which is
    prod(eps) summed over the class, and on a free slot of group g the mean
    sign (free[g] - 2 c_g) / free[g].
    """
    coef = np.asarray(sizes, dtype=float) - 2.0 * c
    mean = coef.copy()  # a group of one slot: its sign
    weight = np.ones(len(c))
    for g, (k, f) in enumerate(zip(sizes, free)):
        if k > 1:
            mean[:, g] = (f - 2.0 * c[:, g]) / f
        if f > 1:
            weight *= np.array([math.comb(f, j) for j in range(f + 1)], dtype=float)[c[:, g]]
    return coef, np.where(c.sum(axis=1) % 2 == 0, weight, -weight), mean


@lru_cache(maxsize=16)
def _count_table(sizes: tuple, free: tuple):
    """How many leading groups (``low``) have at most ``_DET_CHUNK`` count
    vectors together, and :func:`_count_vectors` of all of those, in mixed
    radix with group 0 least significant.  With every group one slot, row k
    is the sign vector with eps_i = -1 where bit i of k is set."""
    radix = np.array(free) + 1
    low = int(np.searchsorted(np.cumprod(radix), _DET_CHUNK, side="right"))
    radix = radix[:low]
    c = np.arange(int(np.prod(radix)))[:, None] // (np.cumprod(radix) // radix) % radix
    table = _count_vectors(sizes[:low], free[:low], c)
    for a in table:
        a.flags.writeable = False
    return low, table


def _slot_groups(flat: np.ndarray):
    """Split the rows of the one tuple in ``flat`` (1, n, w) into groups of
    bitwise-equal rows.

    Returns (representative rows as a (1, groups, w) stack, group sizes, free
    signs per group, slot -> group labels or None when every group is one
    slot).  Groups are ordered by their first slot; the group of slot n-1 has
    one free sign fewer than its size.  Repeats are looked for only from
    ``_GROUP_MIN_N`` slots on, and never in a stack of several tuples.
    """
    b, n = flat.shape[:2]
    if b == 1 and n >= _GROUP_MIN_N:
        bits = flat[0].view(np.uint64)
        # Equal rows have equal first entries: compare whole rows only if some do.
        if len(set(bits[:, 0].tolist())) < n:
            first = (bits[:, None] == bits[None]).all(-1).argmax(1)
            if (first != np.arange(n)).any():
                reps, labels, sizes = np.unique(first, return_inverse=True, return_counts=True)
                free = sizes.copy()
                free[labels[-1]] -= 1
                return flat[:, reps], tuple(sizes.tolist()), tuple(free.tolist()), labels
    return flat, (1,) * n, (1,) * (n - 1) + (0,), None


def _beside(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The columns of ``lo`` followed by the one row ``hi`` on every row."""
    return np.concatenate((lo, np.broadcast_to(hi, (len(lo), hi.shape[1]))), axis=1)


def _eps_combinations(rows: np.ndarray):
    """Yield (eps, sign, combinations) over the classes of eps in {+-1}^n with
    eps[n-1] = +1 whose combinations eps @ rows are equal.

    ``rows`` is a (B, n, m) stack of B tuples of n rows; ``combinations`` is
    (B, c, m), the c combinations of each tuple.  Sign vectors that put the
    same number of -1 signs on each group of bitwise-equal rows give the same
    combination sum_g (k_g - 2 c_g) B_g (see :func:`_count_vectors`), so one
    class stands for all of them.  A group of k_g rows has k_g free signs, the
    group of slot n-1 one fewer, so there are prod_g (free_g + 1) classes
    instead of 2^(n-1): 18 for J_18 rather than 131,072.  ``sign`` is
    prod(eps) summed over the class and ``eps`` the mean eps of each slot
    over it (+1 for slot n-1), so sum sign * eps_i * f(combination) is the
    ungrouped sum for any f.  The coefficients are integers applied to the
    representative rows, so every combination entry is rounded once.

    Repeats are looked for only in a single tuple (B = 1) with
    n >= ``_GROUP_MIN_N``: the check (the set of first entries, then one
    broadcast compare of the rows if two of those agree) costs a few
    microseconds, about what the at most 64 determinants it could save below
    that size cost.  With all rows distinct the classes are the single sign
    vectors, in the order of the bits of their index (bit i set means
    eps_i = -1).

    Chunks hold at most ``_DET_CHUNK`` classes: the cached table of the
    leading groups whose classes fit in one chunk, beside one count vector of
    the remaining groups per chunk.  The combinations are real when the
    imaginary part of the whole stack is exactly zero, complex otherwise;
    either way one real matmul forms a chunk, one BLAS product of the same
    shape per tuple.  Every chunk is written into the same buffer, so a
    consumer must be done with one chunk before the next.
    """
    rows = np.ascontiguousarray(rows)
    if np.iscomplexobj(rows) and not np.count_nonzero(rows.imag):
        rows = np.ascontiguousarray(rows.real)
    flat = rows.view(np.float64)  # complex entries as (re, im) pairs
    reps, sizes, free, labels = _slot_groups(flat)
    low, (lo_coef, lo_sign, lo_mean) = _count_table(sizes, free)
    buf = np.empty((len(flat), len(lo_coef), flat.shape[2]))
    # One count vector of the other groups per chunk: the high digits of the
    # class index, the last group's slowest.
    highs = [()]
    if low < len(free):
        highs = itertools.product(*(range(f + 1) for f in reversed(free[low:])))
    for high in highs:
        coef, sign, mean = lo_coef, lo_sign, lo_mean
        if high:
            hi_coef, hi_sign, hi_mean = _count_vectors(
                sizes[low:], free[low:], np.array([high[::-1]])
            )
            coef, sign = _beside(lo_coef, hi_coef), lo_sign * hi_sign
            if labels is not None:
                mean = _beside(lo_mean, hi_mean)
        if labels is None:
            eps = coef
        else:
            eps = mean[:, labels]
            eps[:, -1] = 1.0
        out = np.matmul(coef, reps, out=buf)
        yield eps, sign, out.view(rows.dtype)


def _centered_sum(rows: np.ndarray, term):
    """For each tuple of ``rows``: 2^(1-n) sum over eps of prod(eps) *
    term(eps @ rows[b]), and of |terms|, as two (B,) arrays.

    ``rows`` is a (B, n, m) stack: B tuples of n summands, flattened.
    ``term`` maps a chunk of combinations (k, m) to k values.  Only eps with
    eps[n-1] = +1 appear, which halves the work for terms homogeneous of
    degree n, and from n = ``_GROUP_MIN_N`` on equal rows are grouped, so
    ``term`` sees prod_g (free_g + 1) combinations (see
    :func:`_eps_combinations`).  The signed terms are summed with
    compensation; the second result, sum |terms| over all 2^(n-1) ungrouped
    terms (a class weight times |term|), is the scale of the rounding error
    of the first (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 4): that error is a small multiple of the unit round-off times it.

    Each tuple's pair is bit for bit what the stack of that tuple alone
    (B = 1) gives.  A stack runs as one enumeration below ``_GROUP_MIN_N``
    when its tuples are all real or all complex; a mixed stack runs as its
    real and its complex part, and from ``_GROUP_MIN_N`` on, where grouping
    is per tuple, a stack runs tuple by tuple.  The values come back complex
    if any tuple is complex.
    """
    rows = np.asarray(rows)
    b, n, m = rows.shape
    parts = None
    if b > 1 and n >= _GROUP_MIN_N:
        parts = [[i] for i in range(b)]
    elif b > 1 and np.iscomplexobj(rows):
        real = ~rows.imag.reshape(b, -1).any(axis=1)
        if real.any() and not real.all():
            parts = [np.flatnonzero(real), np.flatnonzero(~real)]
    if parts is not None:
        results = [(idx, _centered_sum(rows[idx], term)) for idx in parts]
        values = np.empty(b, np.result_type(*(v for _, (v, _) in results)))
        magnitudes = np.empty(b)
        for idx, (v, mag) in results:
            values[idx], magnitudes[idx] = v, mag
        return values, magnitudes
    chunks = [sign * term(s.reshape(-1, m)).reshape(b, -1) for _, sign, s in _eps_combinations(rows)]
    terms = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
    scale = 2.0 ** (1 - n)
    if np.iscomplexobj(terms):
        parts = zip(_fsum_rows(terms.real), _fsum_rows(terms.imag))
        values = [scale * complex(re, im) for re, im in parts]
    else:
        values = [scale * total for total in _fsum_rows(terms)]
    magnitudes = [scale * total for total in _fsum_rows(np.abs(terms))]
    return np.array(values), np.array(magnitudes)


def _fsum_rows(a: np.ndarray) -> list:
    """``math.fsum`` of each row of a real 2-D array, read in place."""
    return [math.fsum(row) for row in a]


def _polarized_raw(mats) -> np.ndarray:
    """D of each tuple of a (B, n, n, n) stack by the centered polarization
    2^(1-n) sum prod(eps) det(sum eps_i mats[b, i]): B values, real or complex."""
    mats = np.asarray(mats)
    b, n = mats.shape[:2]
    _gate(n, _GATE_POLARIZED, "eval_polarized")
    rows = mats.reshape(b, n, n * n)
    return _centered_sum(rows, lambda s: np.linalg.det(s.reshape(-1, n, n)))[0]


def eval_polarized(t: MatrixTuple) -> float:
    """Mixed discriminant via the centered polarization.

    The production path: D = 2^(1-n) sum over eps in {+-1}^n with
    eps_n = +1 of prod(eps) det(sum eps_i A_i), 2^(n-1) determinants for
    distinct slots and prod_g (free_g + 1) when n >= 8 and slots repeat.
    """
    return _as_real(_polarized_raw(t.matrices[None])[0])


def eval_sigma_det(t: MatrixTuple) -> float:
    """Mixed discriminant as sum over sigma of det(A_sigma).

    Column i of A_sigma is column i of A_{sigma(i)}.  The real parts of the
    n! determinants go through one ``math.fsum`` as each chunk is computed,
    so no chunk outlives its own sum; the imaginary parts only feed the
    residue check, summed per chunk.
    """
    n = t.n
    _gate(n, _GATE_SIGMA_DET, "eval_sigma_det")
    cols = t.matrices  # cols[j, :, i] is column i of A_j
    buf = np.empty((min(_DET_CHUNK, math.factorial(n)), n, n), dtype=np.complex128)
    imag = []

    def real_parts():
        for perms in _iter_perm_chunks(n):
            stacked = buf[: len(perms)]
            for i in range(n):
                stacked[:, :, i] = cols[perms[:, i], :, i]
            dets = np.linalg.det(stacked)
            imag.append(math.fsum(dets.imag.tolist()))
            yield dets.real.tolist()

    real = math.fsum(itertools.chain.from_iterable(real_parts()))
    return _as_real(complex(real, math.fsum(imag)))


def _double_perm_raw(mats) -> complex:
    n = len(mats)
    perms, signs = _perms_and_signs(n)
    rows = np.asarray(mats)  # rows[i, k, :] is row k of A_i
    per_sigma = np.empty(len(perms), dtype=np.complex128)
    prod = np.empty((len(perms), n), dtype=np.complex128)
    for s, sigma in enumerate(perms):
        for i in range(n):
            prod[:, i] = rows[i, sigma[i], perms[:, i]]
        per_sigma[s] = signs[s] * fsum_complex(signs * np.prod(prod, axis=1))
    return fsum_complex(per_sigma)


def eval_double_perm(t: MatrixTuple) -> float:
    """Signed double permutation sum; an independent (n!)^2 oracle."""
    _gate(t.n, _GATE_DOUBLE_PERM, "eval_double_perm")
    return _as_real(_double_perm_raw(t.matrices))


def permanent(c):
    """Permanent by Glynn's formula with compensated summation.

    per(c) = 2^(1-n) sum over eps in {+-1}^n with eps_n = +1 of
    prod(eps) prod_j (eps @ c)_j: 2^(n-1) products of row-combination sums,
    fewer when n >= 8 and rows repeat.
    Accepts real or complex square matrices; the result dtype follows the
    input.  Gated at n <= 20.
    """
    a = np.asarray(c)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    _gate(n, _GATE_PERMANENT, "permanent")
    is_complex = np.iscomplexobj(a)
    a = a.astype(np.complex128 if is_complex else np.float64)
    if n == 0:
        return 1.0
    value = _centered_sum(a[None], lambda s: np.prod(s, axis=1))[0][0]
    return complex(value) if is_complex else float(value)


def eval_signed_permanent(t: MatrixTuple) -> float:
    """Signed sum over sigma of per(B_sigma) with B_sigma(k, l) = A_l(k, sigma(k))."""
    n = t.n
    _gate(n, _GATE_SIGNED_PERM, "eval_signed_permanent")
    perms, signs = _perms_and_signs(n)
    # b[s, k, l] = A_l(k, sigma_s(k)).  Each kernel call takes the per(B_sigma)
    # of a block of sigma with at most _DET_CHUNK sign vectors in all, each
    # with the bits of its own :func:`permanent` call.
    b = t.matrices[:, np.arange(n), perms.astype(np.intp)].transpose(1, 2, 0)
    block = _DET_CHUNK >> (n - 1)
    pers = np.concatenate([
        _centered_sum(b[lo : lo + block], lambda s: np.prod(s, axis=1))[0]
        for lo in range(0, len(b), block)
    ])
    return _as_real(fsum_complex(signs * pers))


def eval_tensor(t: MatrixTuple) -> float:
    """<(A_1 (x) ... (x) A_n) V, V> with V the antisymmetrizer vector.

    V(i_1,..,i_n) = sgn(tau) when the index word is the value sequence of a
    permutation tau, else 0 (the standard reading of the tensor formula).
    """
    n = t.n
    _gate(n, _GATE_TENSOR, "eval_tensor")
    perms, signs = _perms_and_signs(n)
    v = np.zeros((n,) * n)
    for sigma, s in zip(perms, signs):
        v[tuple(sigma)] = s
    w = v.astype(np.complex128)
    for i in range(n):
        w = np.moveaxis(np.tensordot(t.matrices[i], w, axes=(1, i)), 0, i)
    idx = tuple(perms[:, i].astype(np.intp) for i in range(n))
    return _as_real(fsum_complex(signs * w[idx]))


# ---------------------------------------------------------------------------
# gradient and identities

def _adjugates(m: np.ndarray):
    """adj(M) and det(M) for a stack of Hermitian M, valid when M is singular.

    With M = V diag(lam) V^*, adj(M) = V diag(prod_{k != j} lam_k) V^*; the
    cofactor products come from prefix and suffix products, with no division.
    det(M) is prod lam.
    """
    lam, v = np.linalg.eigh(m)
    ones = np.ones_like(lam[:, :1])
    before = np.cumprod(np.concatenate([ones, lam[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, lam[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    adj = (v * (before * after)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return adj, np.prod(lam, axis=1)


def gradient(t: MatrixTuple) -> DiscriminantGradient:
    """All Q_i such that D(A_1,..,X,..,A_n) = tr(X Q_i), plus D(t).

    Differentiating the centered polarization in slot i gives
    Q_i = 2^(1-n) sum over eps (eps_n = +1) of prod(eps) eps_i adj(M_eps)
    with M_eps = sum eps_j A_j; 2^(n-1) Hermitian eigendecompositions, one
    per class of equal M_eps when n >= 8 and slots repeat.  The same
    eigenvalues give D = 2^(1-n) sum prod(eps) det(M_eps), summed with
    ``math.fsum``.
    """
    n = t.n
    _gate(n, _GATE_POLARIZED, "gradient")
    rows = t.matrices.reshape(1, n, n * n)
    q, terms = 0, []
    for eps, sign, s in _eps_combinations(rows):
        adj, det = _adjugates(s.reshape(-1, n, n))
        q = q + (eps * sign[:, None]).T @ adj.reshape(-1, n * n)
        terms.append(sign * det)
    scale = 2.0 ** (1 - n)
    qs = as_hermitian(q.reshape(n, n, n) * scale, tol=1e-6)
    return DiscriminantGradient(Q=qs, value=scale * math.fsum(np.concatenate(terms)))


def euler_identity_residual(t: MatrixTuple, omega=None, grad: DiscriminantGradient | None = None) -> float:
    """Max-entry norm of sum_i A_i Q_i - D * I (the Eulerian matrix identity).

    With ``omega`` given, also evaluates the quadratic-form variant
    |sum_i <A_i Q_i w, w> - D <w, w>| and returns the larger residual.
    """
    g = grad if grad is not None else gradient(t)
    acc = (t.matrices @ g.Q).sum(0)
    res = max_abs(acc - g.value * np.eye(t.n))
    if omega is not None:
        w = np.asarray(omega, dtype=np.complex128).reshape(t.n)
        res = max(res, abs(np.vdot(w, acc @ w) - g.value * np.vdot(w, w)))
    return float(res)


def _require_psd(t: MatrixTuple, tol: Tolerances) -> None:
    worst = psd_violation(t.matrices)
    if worst > tol.psd_tol * (1.0 + t.scale_of()):
        raise PreconditionViolated(f"tuple is not PSD (violation {worst:.3e})")


def _trace_and_sum_violations(
    mats: np.ndarray, total: np.ndarray, eye: np.ndarray
) -> tuple[float, float]:
    """max_i |tr A_i - 1| and max|sum_i A_i - I| for a nonempty (n, n, n)
    stack, given its sum ``total`` and the identity ``eye`` (the scaling loop
    forms the sum once per step and keeps one identity)."""
    trace_v = abs(mats.trace(axis1=1, axis2=2).real - 1.0).max()
    return float(trace_v), float(abs(total - eye).max())


def check_doubly_stochastic(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DsTupleReport:
    """Violations of the three doubly stochastic tuple conditions."""
    psd_v = psd_violation(t.matrices)
    trace_v, sum_v = _trace_and_sum_violations(t.matrices, t.matrices.sum(0), np.eye(t.n))
    ok = psd_v <= tol.ds_tol and trace_v <= tol.ds_tol and sum_v <= tol.ds_tol
    return DsTupleReport(psd_v, trace_v, sum_v, ok)


def exchange_value(
    t: MatrixTuple,
    i: int,
    j: int,
    grad: DiscriminantGradient | None = None,
) -> tuple[float, float]:
    """(D(A^{i,j}), D(A^{j,i})): slot j replaced by A_i, and vice versa.

    Both are computed directly (polarization of the substituted tuple) and as
    tr(A_i Q_j) / tr(A_j Q_i); the two routes must agree within
    ``_EXCHANGE_CHECK_REL`` relative.  A precomputed ``grad`` avoids recomputing Q.
    """
    if i == j:
        raise ValueError("exchange_value needs two distinct slots")
    g = grad if grad is not None else gradient(t)
    pair = np.array([t.matrices, t.matrices])
    pair[0, j], pair[1, i] = t.matrices[i], t.matrices[j]
    d_ij, d_ji = _as_real(_polarized_raw(pair)).tolist()
    t_ij = _as_real(np.trace(t.matrices[i] @ g.Q[j]), 1e-8)
    t_ji = _as_real(np.trace(t.matrices[j] @ g.Q[i]), 1e-8)
    bound = _EXCHANGE_CHECK_REL * (1.0 + abs(d_ij) + abs(d_ji))
    if abs(d_ij - t_ij) > bound or abs(d_ji - t_ji) > bound:
        raise NumericalInconsistency(
            f"exchange values disagree: direct ({d_ij:.12g}, {d_ji:.12g}) vs "
            f"trace form ({t_ij:.12g}, {t_ji:.12g})"
        )
    return d_ij, d_ji


def diagonal_tuple(c) -> MatrixTuple:
    """The tuple of diagonal matrices built from the columns of ``c``.

    Bridges permanents and mixed discriminants: D of the result equals per(c).
    """
    a = np.asarray(c, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    return MatrixTuple([np.diag(a[:, j]) for j in range(a.shape[0])])
