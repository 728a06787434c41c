"""Mixed discriminant evaluators, gradients, and tuple predicates.

The production evaluator is :func:`eval_polarized`: the centered
polarization D = 2^(1-n) sum over eps in {+-1}^n with eps_n = +1 of
prod(eps) det(sum eps_i A_i) (the mixed-discriminant form of Glynn's
permanent formula).  One chunked eps-enumeration kernel also gives Glynn
permanents (:func:`permanent`), the gradients Q_i from adjugates
(:func:`gradient`: 2^(n-1) LU determinants and inverses, with Hermitian
eigensolves only for the singular or ill-conditioned combinations) and the
hyperbolic mixed values.  From n = 8 on the kernel groups bitwise-equal
slots (rows): a tuple whose groups have free_g free signs costs
prod_g (free_g + 1) determinants instead of 2^(n-1), so J_n and
D(P/n, .., P/n) take n, and a tuple of distinct slots still takes 2^(n-1).
The kernel's sum of |terms| keeps its meaning, the ungrouped sum.  Its
chunks hold at most ``_CHUNK_BYTES`` of each tuple's combinations and at
most 2048 classes, so that a permanent's chunk stays in a core's cache, and
its sums are exact chunk by chunk, so its working memory does not grow with
the number of classes.  Every module reads D of Hermitian tuples through
:func:`_discriminants`, one residue gate at 8 n u S (:func:`_as_real_d`).
The permutation-sum formulas are independent oracles behind hard dimension
gates (``core._gate``):

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
    _EPS,
    DEFAULT_TOL,
    NotHermitian,
    NumericalInconsistency,
    OutOfRange,
    PreconditionViolated,
    Tolerances,
    _ds_limit,
    _eigh,
    _gate,
    _psd,
    as_hermitian,
    fsum_complex,
    max_abs,
    require_finite,
)

_GATE_SIGMA_DET = 10
_GATE_DOUBLE_PERM = 6
_GATE_SIGNED_PERM = 7
_GATE_TENSOR = 6
_GATE_POLARIZED = 20
_GATE_PERMANENT = 20

# Bytes of one tuple's combinations in a chunk of the centered kernel, from
# which the classes per chunk follow (_chunk_classes); at most 2 MiB of
# combinations are live per tuple, whatever n.
_CHUNK_BYTES = 1 << 21
# Slot count from which the centered kernel groups repeated slots (see
# _eps_combinations for why not below).
_GROUP_MIN_N = 8
# Relative agreement demanded of the two exchange_value routes.
_EXCHANGE_CHECK_REL = 1e-8
# The LU adjugate det(M) M^-1 is accurate to kappa u ||M||^(n-1), with
# kappa = ||M||_1 ||M^-1||_1 and u the unit round-off; the eigen-cofactor
# route to u ||M||^(n-1) whatever kappa.  Above this kappa LU would lose four
# or more digits the eigen route keeps, so those classes take the eigen route.
_ADJ_LU_MAX_COND = 1e4


class MatrixTuple:
    """Ordered n-tuple of n x n Hermitian matrices (square tuples only).

    ``matrices`` is one read-only, C-contiguous complex (n, n, n) array whose
    slice ``matrices[i]`` is A_i; iterating the tuple yields the slices.  C
    order whatever the input's strides (a broadcast stack, say) lets every
    ``reshape(n, n * n)`` of the stack be a view.

    A tuple never changes, so a result derived from it deterministically can
    be kept on it: the private ``_memo`` holds what ``_memoized`` computed.
    The one memo rule: an entry is keyed by its name alone when its
    computation reads no tolerance, else by its name and the
    ``Tolerances``; it has one writer, so a hit returns the bits a fresh
    tuple gives.  A check that the computation does not read runs on every
    call, and an exception is never kept.  The four entries:

    * "slot_eigs", the slots' eigenvalues (:func:`_slot_eigenvalues`),
      which every PSD check and the slot ranks of the one-tuple rank tests
      read, each at its own tolerances;
    * "polarized", D as :func:`eval_polarized` returns it, the float that
      passed the residue gate, which every reader of D through it shares
      (:func:`gradient` leaves it alone: its ``value`` has the same bits but
      never passes the gate);
    * "newton", the damped-Newton ``CapacityResult`` of
      ``capacity.capacity``, which reads no tolerance: its PSD check runs
      on every call, and the solve once per tuple;
    * ("scaling", Tolerances), the ``ScalingResult`` of
      ``capacity.scale_to_doubly_stochastic``, whose one-tuple call of
      ``capacity._scale_stack`` reads the tolerances in its rank tests and
      its loop; that stack route and the sampler touch no memo.

    ``genaf.expand_tuple`` returns the tuple itself for the all-ones
    weight, so ``check_theorem52`` reuses the tuple's own entries there.

    Library code that already holds an exactly Hermitian stack (a scaled
    tuple, the repeated rows of a validated tuple) wraps it with
    :meth:`_of_hermitian`, which skips ``as_hermitian``: symmetrizing such a
    stack would return its bits unchanged.
    """

    __slots__ = ("n", "matrices", "_memo")

    def __init__(self, matrices, tol: Tolerances = DEFAULT_TOL):
        mats = np.ascontiguousarray(as_hermitian(matrices, tol.hermitian_tol))
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
        self._memo = {}

    @classmethod
    def _of_hermitian(cls, mats: np.ndarray) -> "MatrixTuple":
        """The tuple of a complex (n, n, n) stack that is already exactly
        Hermitian; the stack is made read-only and kept, not copied."""
        mats.flags.writeable = False
        t = cls.__new__(cls)
        t.n = len(mats)
        t.matrices = mats
        t._memo = {}
        return t

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def __len__(self):
        return self.n

    def _memoized(self, key, compute):
        """compute(), run on the first call with ``key`` and kept on the tuple
        for later ones.  An exception from compute is raised and nothing is
        kept, so the next call runs it again.  compute must return a value
        that cannot change, such as a frozen dataclass of read-only arrays."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass(frozen=True)
class DiscriminantGradient:
    """Gradient matrices Q_i with D(A_1,..,X,..,A_n) = tr(X Q_i), plus D itself."""

    Q: np.ndarray  # (n, n, n): Q[i] is Q_i
    value: float


@dataclass(frozen=True)
class DsTupleReport:
    """Deviation of a tuple from the doubly stochastic conditions, and the
    limit ``core._ds_limit`` that the verdict held each violation to."""

    psd_violation: float
    trace_violation: float
    sum_violation: float
    limit: float
    is_doubly_stochastic: bool


def _as_real(z, tol_scale: float = 1e-9):
    """The real part of a value, or of an array of values, whose imaginary
    residues all satisfy |Im z| <= tol_scale * (1 + |z|); NumericalInconsistency
    otherwise.  A scalar comes back as a float, an array as its real array."""
    z = np.asarray(z)
    bad = np.abs(z.imag) > tol_scale * (1.0 + np.abs(z))
    if bad.any():
        raise NumericalInconsistency(
            f"value {complex(z[bad][0])!r} has imaginary residue above {tol_scale:g} gate"
        )
    return float(z.real) if z.ndim == 0 else z.real


def _as_real_d(z: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The real parts of the (B,) mixed discriminants ``z`` of the Hermitian
    tuples of a (B, n, n, n) stack ``mats``; NumericalInconsistency unless
    every |Im z| <= 8 n u S, S = (sum_i ||A_i||_2)^n of its tuple.

    D of a Hermitian tuple is real, so Im z is rounding error alone, and S
    bounds every term both routes sum.  A kernel term det(M_eps), M_eps =
    sum eps_i A_i, has |det M_eps| <= ||M_eps||_2^n <= S.  A term det(A_sigma)
    of the permutation sum has |det A_sigma| <= prod_i ||A_sigma(i) e_i||_2
    (Hadamard), so those terms sum in absolute value to at most per(C),
    C_ji = ||A_j e_i||_2, and per(C) <= prod_i sum_j C_ji <= S.  The rounding
    error of either sum is a small multiple of n u (u the unit round-off)
    times its scale.  A gate relative to |z| would reject valid tuples whose
    terms cancel: with a rank-one slot repeated D = 0 and every term is
    itself rounding noise.  The lower bound S >= max |entry of the tuple|^n
    passes almost every nonzero residue, so S itself is computed, by one
    batched ``eigvalsh``, only for the values it does not pass.  A bound
    beyond the float range reads inf, which every finite residue passes.
    """
    n = mats.shape[-1]
    imag = np.abs(z.imag)
    if imag.any():
        gate = _rounding_scale(n)
        with np.errstate(over="ignore"):
            unsure = np.flatnonzero(imag > gate * np.abs(mats).max(axis=(1, 2, 3)) ** n)
            if unsure.size:
                norms = np.abs(_eigh(mats[unsure], vectors=False)).max(-1)
                bounds = gate * norms.sum(-1) ** n
                bad = imag[unsure] > bounds
                if bad.any():
                    k = int(bad.argmax())
                    raise NumericalInconsistency(
                        f"value {complex(z[unsure[k]])!r} has imaginary "
                        f"residue above 8 n u S = {bounds[k]:.3g}"
                    )
    return z.real


def _rounding_scale(n: int) -> float:
    """8 n u (u = eps / 2 the unit round-off): the rounding of the kernel's
    sums of n-fold products relative to their sum of |terms|, or a bound on it."""
    return 8 * n * (_EPS / 2)


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
    signs = _perm_signs(perms)
    perms.flags.writeable = False
    signs.flags.writeable = False
    return perms, signs


def _chunk_classes(row_bytes: int) -> int:
    """Classes (or permutations) per chunk whose combinations (or gathered
    matrices) of ``row_bytes`` bytes each fill ``_CHUNK_BYTES``.  A class
    counts as at least 1 KiB, so no chunk holds more than 2048 classes: a
    permanent's chunk (its combinations, coefficients and terms, about
    0.7 MB at real n = 16) stays in a core's cache through the
    column-by-column product and the exact sums, which sweep it again.  Rows
    of 1 KiB or more, the complex slots from n = 8 on, fill the budget as
    they are."""
    return _CHUNK_BYTES // max(row_bytes, 1024)


def _iter_perm_chunks(n: int):
    """S_n as (k, n) arrays of permutations, as many per chunk as
    :func:`_chunk_classes` gives for their gathered n x n complex matrices:
    slices of the cached table up to n = 8, generated chunk by chunk above."""
    size = _chunk_classes(16 * n * n)
    if n <= 8:
        perms = _perms_and_signs(n)[0]
        for lo in range(0, len(perms), size):
            yield perms[lo : lo + size]
        return
    it = itertools.permutations(range(n))
    while block := list(itertools.islice(it, size)):
        yield np.array(block, dtype=np.int8)


@lru_cache(maxsize=16)
def _class_table(sizes: tuple, free: tuple):
    """Coefficients (N, G) and signs (N,) of every class of G groups of
    ``sizes`` equal slots, ``free`` of whose signs are free (all of them, or
    all but slot n-1's).  The arrays are cached and read-only, by the groups
    they cover, so real and complex rows of one profile share a table
    wherever their chunks split the groups alike.

    Class k has the count vector c whose mixed-radix digits, group 0 least
    significant, are those of k: c_g of group g's free signs are -1.  Its
    combination is sum_g (k_g - 2 c_g) B_g, so its coefficient in group g is
    k_g - 2 c_g, the sum of the group's signs (over k_g, each slot's weight
    in the gradient, :func:`_eps_combinations`), and its sign is
    prod_g (-1)^c_g C(f_g, c_g), prod(eps) summed over the class's sign
    vectors.  With every group one slot, row k is the sign vector with
    eps_i = -1 where bit i of k is set.  Each group's column is one broadcast
    write of its f + 1 values, and the signs one broadcast product per group,
    so no digit or index table is formed; the signs are products of small
    integers, exact in any order.
    """
    total = math.prod(f + 1 for f in free)
    coef = np.empty((total, len(free)))
    sign = np.ones(total)
    stride = 1
    for g, (k, f) in enumerate(zip(sizes, free)):
        # Rows (q, c, r) of this view have digit c in group g.
        shape = (total // (stride * (f + 1)), f + 1, stride)
        coef.reshape(*shape, -1)[..., g] = k - 2.0 * np.arange(f + 1.0)[:, None]
        signs = sign.reshape(shape)
        signs *= np.array([(-1.0) ** c * math.comb(f, c) for c in range(f + 1)])[:, None]
        stride *= f + 1
    coef.flags.writeable = sign.flags.writeable = False
    return coef, sign


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
        # Equal rows have equal first entries: compare whole rows only if some
        # do, by their bytes, each row keyed to the first slot that has them.
        if len(set(flat[0, :, 0].view(np.uint64).tolist())) < n:
            seen = {}
            first = np.array([seen.setdefault(row.tobytes(), i) for i, row in enumerate(flat[0])])
            if len(seen) < n:
                reps, labels, sizes = np.unique(first, return_inverse=True, return_counts=True)
                free = sizes.copy()
                free[labels[-1]] -= 1
                return flat[:, reps], tuple(sizes.tolist()), tuple(free.tolist()), labels
    return flat, (1,) * n, (1,) * (n - 1) + (0,), None


def _eps_combinations(rows: np.ndarray):
    """Yield (eps, sign, combinations) over the classes of eps in {+-1}^n with
    eps[n-1] = +1 whose combinations eps @ rows are equal.

    ``rows`` is a (B, n, m) stack of B tuples of n rows; ``combinations`` is
    (B, c, m), the c combinations of each tuple.  Sign vectors that put the
    same number of -1 signs on each group of bitwise-equal rows give the same
    combination sum_g (k_g - 2 c_g) B_g (see :func:`_class_table`), so one
    class stands for all of them.  A group of k_g rows has k_g free signs, the
    group of slot n-1 one fewer, so there are prod_g (free_g + 1) classes
    instead of 2^(n-1): 18 for J_18 rather than 131,072.  ``sign`` is
    prod(eps) summed over the class, so sum sign * f(combination) is the
    ungrouped sum for any f.  ``eps`` weighs slot i of a group of k_g slots,
    slot n-1 included, by coef_g / k_g, the class's coefficient of its group
    over the group's size; distinct slots get their signs.  So
    sum sign * eps_i * f(combination) is the ungrouped sum for any f
    homogeneous of degree n - 1, such as the adjugate of the gradient: there
    the terms prod(eps) eps_i f(eps @ rows) of eps and -eps are equal, so the
    half cube sums to half the whole cube, which is symmetric among a group's
    slots and so gives each the same share of the group's sum, and
    sum_(i in g) eps_i = coef_g on every sign vector of a class.  The
    coefficients are integers applied to the representative rows, so every
    combination entry is rounded once.

    Repeats are looked for only in a single tuple (B = 1) with
    n >= ``_GROUP_MIN_N``: the check (the set of first entries, then a dict
    of the rows' bytes if two of those agree) costs a few microseconds,
    about what the at most 64 determinants it could save below that size
    cost.  With all rows distinct the classes are the single sign
    vectors, in the order of the bits of their index (bit i set means
    eps_i = -1).

    A chunk holds the classes of the cached table of the leading groups
    whose classes together fit ``_chunk_classes`` of one combination's bytes,
    beside one class of the remaining groups, a row of their own cached
    table, in the order of the high digits of the class index.  So each
    tuple's combinations take at most ``_CHUNK_BYTES`` per chunk: 512 classes of a
    complex n = 16 tuple, 2048 (the cap) for a permanent from n = 12 on.
    Below ``_GROUP_MIN_N`` (64 classes of at most 784 bytes) every stack is
    one chunk.  The combinations are real when the imaginary part of the
    whole stack is exactly zero, complex otherwise; either way one real
    matmul forms a chunk, one BLAS product of the same shape per tuple.
    BLAS may round a row of a product differently with the number of rows
    in it (OpenBLAS does, in the tail rows and columns of its blocks), so a
    combination keeps its bits across chunk sizes only where it is exact,
    and D may move in its last bits with the chunk size.  Every chunk is
    written into the same buffers: the yielded ``eps``, like the
    combinations, may be overwritten by the next chunk, so a consumer must
    be done with both before it asks for the next.
    """
    rows = np.ascontiguousarray(rows)
    if np.iscomplexobj(rows) and not np.count_nonzero(rows.imag):
        rows = np.ascontiguousarray(rows.real)
    flat = rows.view(np.float64)  # complex entries as (re, im) pairs
    reps, sizes, free, labels = _slot_groups(flat)
    width = flat.shape[2]
    # The leading groups whose classes together fit one chunk.
    low = int(np.searchsorted(np.cumprod(np.array(free) + 1), _chunk_classes(8 * width), side="right"))
    coef, sign = lo_coef, lo_sign = _class_table(sizes[:low], free[:low])
    buf = np.empty((len(flat), len(lo_coef), width))
    # Each chunk writes one row of the other groups' table into the tail
    # columns of a table whose low columns hold the low table from the start.
    highs = [None]
    if low < len(free):
        hi_coef, hi_sign = _class_table(sizes[low:], free[low:])
        highs = range(len(hi_sign))
        coef = np.empty((len(lo_coef), len(free)))
        coef[:, :low] = lo_coef
    for high in highs:
        if high is not None:
            coef[:, low:] = hi_coef[high]
            sign = lo_sign * hi_sign[high]
        eps = coef if labels is None else coef[:, labels] / np.array(sizes)[labels]
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
    :func:`_eps_combinations`).  The signed terms are summed correctly
    rounded, chunk by chunk as they are computed (:func:`_exact_sums`), so
    no more than one chunk of terms is held; the second result, sum |terms|
    over all 2^(n-1) ungrouped terms (a class weight times |term|), is the
    scale of the rounding error of the first (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 4): that error is a small multiple of the
    unit round-off times it.  As a scale it needs no compensation: it is
    numpy's pairwise sum of each chunk's nonnegative |terms|, the chunks'
    sums added in order, within about (log2(N) + chunks) u of the exact sum.

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
    sums, magnitudes = _exact_sums(
        sign * term(s.reshape(-1, m)).reshape(b, -1) for _, sign, s in _eps_combinations(rows)
    )
    scale = 2.0 ** (1 - n)
    if len(sums) > b:
        values = [scale * complex(re, im) for re, im in zip(sums[:b], sums[b:])]
    else:
        values = [scale * total for total in sums]
    return np.array(values), scale * magnitudes


def _exact_sums(chunks):
    """The row sums of the (B, c) chunks of terms that ``chunks`` yields,
    each consumed before the next is asked for: the correctly rounded sums
    as a list of floats, the B real parts then, if the terms are complex,
    the B imaginary parts, and the sums of |terms| as a (B,) array.

    Each row's sum is one ``math.fsum`` (:func:`_fsum_rows`) of the last
    chunk's terms beside the exact parts (:func:`_exact_parts`) of every
    earlier chunk, a few floats per row and chunk that sum exactly to the
    chunk's row.  fsum rounds the exact sum correctly, so the sum has the
    bits of one fsum over all the terms, whatever the chunks, and no more
    than one chunk of terms is held.
    The sums of |terms| are numpy's pairwise sums per chunk, added in order.

    The terms are computed as the chunks are asked for, under
    ``np.errstate(over="raise")``: a term, a sum of |terms| or a row sum
    beyond the float range raises ``OutOfRange``, where the value the sums
    give after scaling, such as D, may still lie within it.
    """
    try:
        with np.errstate(over="raise"):
            parts = []
            last = next(chunks)
            magnitudes = np.abs(last).sum(axis=1)
            for terms in chunks:
                magnitudes += np.abs(terms).sum(axis=1)
                parts.append(_exact_parts(_real_rows(last)))
                last = terms
            return _fsum_rows(np.concatenate(parts + [_real_rows(last)], axis=1)), magnitudes
    except (FloatingPointError, OverflowError) as exc:
        raise OutOfRange(f"terms beyond the float range ({exc}); the value may lie within it") from exc


def _real_rows(terms: np.ndarray) -> np.ndarray:
    """A (B, c) array of terms as real rows: itself, or its real then its
    imaginary parts when complex."""
    return np.concatenate((terms.real, terms.imag)) if terms.dtype.kind == "c" else terms


def _exact_parts(x: np.ndarray) -> np.ndarray:
    """A few columns of floats whose rows sum exactly to the rows of the real
    (R, c) array ``x``, by error-free extraction (Rump, Ogita and Oishi,
    SIAM J. Sci. Comput. 31 (2008), ExtractVector).

    With 2^k >= c + 2 and, per row, sigma a power of two at least 2^k times
    its largest |entry|, q = (sigma + x) - sigma and x - q are exact, q is a
    multiple of 2^-53 sigma and the row sum of q is below sigma, so any
    float sum of q is exact too.  Each pass keeps that sum as one column
    and goes on with x - q, whose entries are below 2^(k-53) sigma: 53 - k
    bits fewer, so terms within 2^60 of each other take about three
    passes.  A chunk that is not finite, or within 2^k of overflow, comes
    back whole, and fsum treats it as it would the terms in one list.
    """
    k = (x.shape[1] + 1).bit_length()
    top = np.abs(x).max(axis=1)
    if not (top < 2.0 ** (1023 - k)).all():
        return x
    parts = []
    while top.any():
        sigma = np.ldexp(1.0, np.frexp(top)[1] + k)[:, None]
        q = (sigma + x) - sigma
        x = x - q
        parts.append(q.sum(axis=1))
        top = np.abs(x).max(axis=1)
    return np.array(parts).T.reshape(len(x), -1)


def _fsum_rows(a: np.ndarray) -> list:
    """``math.fsum`` of each row of a real 2-D array, read as Python floats.

    ``math.fsum`` is correctly rounded, so the floats give the bits the
    numpy scalars would, and ``tolist`` reads them in one pass."""
    return [math.fsum(row) for row in a.tolist()]


def _polarized_raw(mats) -> np.ndarray:
    """D of each tuple of a (B, n, n, n) stack by the centered polarization
    2^(1-n) sum prod(eps) det(sum eps_i mats[b, i]): B values, real or complex."""
    b, n = mats.shape[:2]
    _gate(n, _GATE_POLARIZED, "eval_polarized")
    rows = mats.reshape(b, n, n * n)
    return _centered_sum(rows, lambda s: np.linalg.det(s.reshape(-1, n, n)))[0]


def _discriminants(stack: np.ndarray) -> np.ndarray:
    """Real D of each Hermitian tuple of a (B, n, n, n) stack, gated by :func:`_as_real_d`."""
    return _as_real_d(_polarized_raw(stack), stack)


def eval_polarized(t: MatrixTuple) -> float:
    """Mixed discriminant via the centered polarization.

    The production path: D = 2^(1-n) sum over eps in {+-1}^n with
    eps_n = +1 of prod(eps) det(sum eps_i A_i), 2^(n-1) determinants for
    distinct slots and prod_g (free_g + 1) when n >= 8 and slots repeat.
    Computed once per tuple and kept in its memo (see :class:`MatrixTuple`).
    """
    return t._memoized("polarized", lambda: float(_discriminants(t.matrices[None])[0]))


def eval_sigma_det(t: MatrixTuple) -> float:
    """Mixed discriminant as sum over sigma of det(A_sigma).

    Column i of A_sigma is column i of A_{sigma(i)}.  The n! determinants
    go through :func:`_exact_sums` chunk by chunk as they are computed
    (:func:`_iter_perm_chunks`), so no chunk outlives its own sum.
    """
    n = t.n
    _gate(n, _GATE_SIGMA_DET, "eval_sigma_det")
    flat = t.matrices.reshape(-1)
    # Entry (r, i) of A_sigma is entry (r, i) of A_sigma(i), at offset
    # sigma(i) n^2 + r n + i of ``flat``: one gather per chunk.
    offsets = np.arange(n * n).reshape(n, n)
    dets = (
        np.linalg.det(flat.take(perms.astype(np.intp)[:, None, :] * (n * n) + offsets))[None]
        for perms in _iter_perm_chunks(n)
    )
    real, imag = _exact_sums(dets)[0]
    return float(_as_real_d(np.array([complex(real, imag)]), t.matrices[None])[0])


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


def _glynn_terms(s: np.ndarray) -> np.ndarray:
    """prod_j s[k, j] of each row of a (k, m) chunk of combinations, j from
    left to right: on real rows the bits of ``np.prod(s, axis=1)``."""
    out = s[:, 0].copy()
    for j in range(1, s.shape[1]):
        out *= s[:, j]
    return out


def permanent(c):
    """Permanent by Glynn's formula with compensated summation.

    per(c) = 2^(1-n) sum over eps in {+-1}^n with eps_n = +1 of
    prod(eps) prod_j (eps @ c)_j: 2^(n-1) products of row-combination sums
    (:func:`_glynn_terms`, one column at a time), fewer when n >= 8 and rows
    repeat, summed by :func:`_centered_sum`.
    Accepts finite real or complex square matrices (NaN or infinity raises
    ``ValueError``); the result dtype follows the input.  Gated at n <= 20.
    """
    a = np.asarray(c)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    require_finite(a)
    n = a.shape[0]
    _gate(n, _GATE_PERMANENT, "permanent")
    kind = complex if np.iscomplexobj(a) else float
    if n == 0:
        return kind(1)
    value = _centered_sum(a.astype(np.dtype(kind))[None], _glynn_terms)[0][0]
    return kind(value)


def eval_signed_permanent(t: MatrixTuple) -> float:
    """Signed sum over sigma of per(B_sigma) with B_sigma(k, l) = A_l(k, sigma(k))."""
    n = t.n
    _gate(n, _GATE_SIGNED_PERM, "eval_signed_permanent")
    perms, signs = _perms_and_signs(n)
    # b[s, k, l] = A_l(k, sigma_s(k)).  Each kernel call takes the per(B_sigma)
    # of a block of sigma whose sign vectors in all fill one chunk of complex
    # rows of n entries, each with the bits of its own :func:`permanent` call.
    b = t.matrices[:, np.arange(n), perms.astype(np.intp)].transpose(1, 2, 0)
    block = _chunk_classes(16 * n) >> (n - 1)
    pers = np.concatenate([
        _centered_sum(b[lo : lo + block], _glynn_terms)[0]
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

def _norm1(m: np.ndarray) -> np.ndarray:
    """The 1-norm (largest column sum of |entries|) of each matrix of a stack."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


def _eigen_adjugates(m: np.ndarray) -> np.ndarray:
    """adj(M) for a stack of Hermitian M, valid when M is singular.

    With M = V diag(lam) V^*, adj(M) = V diag(prod_{k != j} lam_k) V^*; the
    cofactor products come from prefix and suffix products, with no division.
    """
    lam, v = np.linalg.eigh(m)
    ones = np.ones_like(lam[:, :1])
    before = np.cumprod(np.concatenate([ones, lam[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, lam[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    return (v * (before * after)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _adjugates(m: np.ndarray):
    """adj(M) and det(M) for a (k, n, n) stack of Hermitian M.

    det(M) is ``np.linalg.det``, the LU determinant the kernel takes of the
    same M.  adj(M) is det(M) M^-1 from one batched LU ``inv``, except for the
    matrices that need the eigen-cofactor route (:func:`_eigen_adjugates`):
    those with det 0 or not finite, where M^-1 does not exist, and those with
    kappa_1 = ||M||_1 ||M^-1||_1 above ``_ADJ_LU_MAX_COND``.  At n = 1,
    adj = [[1]] exactly.
    """
    det = np.linalg.det(m)
    n = m.shape[-1]
    if n == 1:
        return np.ones_like(m), det
    lu = np.isfinite(det) & (det != 0)
    # Where M^-1 does not exist, I is inverted instead and the row replaced below.
    regular = m if lu.all() else np.where(lu[:, None, None], m, np.eye(n))
    # Overflow and 0 * inf occur only in rows the eigen route replaces.
    with np.errstate(over="ignore", invalid="ignore"):
        adj = np.linalg.inv(regular)
        lu &= _norm1(regular) * _norm1(adj) <= _ADJ_LU_MAX_COND
        adj *= det[:, None, None]
    # A quarter of the chunk at a time, the eigen route peaks below its own
    # peak on the whole chunk even with adj held.
    rest = np.flatnonzero(~lu)
    step = -(-len(m) // 4)
    for lo in range(0, len(rest), step):
        part = rest[lo : lo + step]
        adj[part] = _eigen_adjugates(m[part])
    return adj, det


def gradient(t: MatrixTuple) -> DiscriminantGradient:
    """All Q_i such that D(A_1,..,X,..,A_n) = tr(X Q_i), plus D(t).

    Differentiating the centered polarization in slot i gives
    Q_i = 2^(1-n) sum over eps (eps_n = +1) of prod(eps) eps_i adj(M_eps)
    with M_eps = sum eps_j A_j; 2^(n-1) LU determinants and inverses, with
    Hermitian eigensolves only for the singular or ill-conditioned M_eps
    (:func:`_adjugates`).  When n >= 8 and slots repeat there is one per
    class c of equal M_c, and slot i of a group g of k_g equal slots gets
    Q_i = 2^(1-n) sum over c of sign_c (coef_(g,c) / k_g) adj(M_c)
    (:func:`_eps_combinations`): D is symmetric in its slots, so equal slots
    get bitwise-equal Q_i.  The same determinants as :func:`eval_polarized`
    give D = 2^(1-n) sum prod(eps) det(M_eps), summed with ``math.fsum``, so
    ``value`` is bit for bit ``eval_polarized(t)``.
    """
    q, value, _ = _gradient_raw(t.matrices)
    return DiscriminantGradient(Q=q, value=value)


def _gradient_raw(mats: np.ndarray):
    """(Q, D, sum |terms|) of one (n, n, n) tuple by the adjugate pass of
    :func:`gradient`: 2^(n-1) LU determinants and inverses, eigensolves only
    for the classes :func:`_adjugates` sends there.  D and sum |terms| are
    the kernel's values for the tuple (:func:`_centered_sum`), bit for bit;
    the second is the rounding scale of D.  Q is summed chunk by chunk, so
    its last bits depend on the chunk size; the determinants of a chunk go
    into :func:`_exact_sums` as soon as its adjugates are added to Q.  A Q
    that rounding left non-Hermitian beyond 1e-6 of its scale is a failed
    internal check, ``NumericalInconsistency``, not an input error."""
    n = len(mats)
    _gate(n, _GATE_POLARIZED, "gradient")
    rows = mats.reshape(1, n, n * n)
    q = 0

    def signed_dets():
        nonlocal q
        for eps, sign, s in _eps_combinations(rows):
            adj, det = _adjugates(s.reshape(-1, n, n))
            # The next chunk overwrites eps and s: both are consumed here.
            q = q + (eps * sign[:, None]).T @ adj.reshape(-1, n * n)
            yield (sign * det)[None]

    sums, magnitudes = _exact_sums(signed_dets())
    scale = 2.0 ** (1 - n)
    try:
        qs = as_hermitian(q.reshape(n, n, n) * scale, tol=1e-6)
    except NotHermitian as exc:
        raise NumericalInconsistency(f"gradient Q lost its Hermiticity to rounding: {exc}") from exc
    return qs, scale * sums[0], float(scale * magnitudes[0])


def euler_identity_residual(t: MatrixTuple, grad: DiscriminantGradient | None = None) -> float:
    """Max-entry norm of sum_i A_i Q_i - D * I (the Eulerian matrix identity)."""
    g = grad if grad is not None else gradient(t)
    acc = (t.matrices @ g.Q).sum(0)
    return float(max_abs(acc - g.value * np.eye(t.n)))


def _slot_eigenvalues(t: MatrixTuple) -> np.ndarray:
    """The slots' eigenvalues, (n, n) ascending and read-only, from one
    batched ``eigvalsh`` per tuple, kept on it by "slot_eigs"."""

    def compute():
        w = _eigh(t.matrices, vectors=False)
        w.flags.writeable = False
        return w

    return t._memoized("slot_eigs", compute)


def _require_psd(t: MatrixTuple, tol: Tolerances) -> np.ndarray:
    """Raise unless the slots pass ``core._psd`` at the tuple's largest
    |entry|; return the slots' eigenvalues (``_slot_eigenvalues``)."""
    w = _slot_eigenvalues(t)
    if not _psd(w, max_abs(t.matrices), tol).all():
        raise PreconditionViolated(f"tuple is not PSD (smallest eigenvalue {w.min():.3e})")
    return w


def _trace_and_sum_violations(
    mats: np.ndarray, total: np.ndarray, eye: np.ndarray
) -> tuple[float, float]:
    """max_i |tr A_i - 1| and max|sum_i A_i - I| for a nonempty (n, n, n)
    stack, given its sum ``total`` and the identity ``eye`` (the scaling loop
    forms the sum once per step and keeps one identity)."""
    trace_v = abs(mats.trace(axis1=1, axis2=2).real - 1.0).max()
    return float(trace_v), float(abs(total - eye).max())


def check_doubly_stochastic(t: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> DsTupleReport:
    """Violations of the three doubly stochastic tuple conditions.

    ``psd_violation`` is the largest negative slot eigenvalue in absolute
    value.  The verdict holds each violation to the one limit
    ``core._ds_limit(n, tol)``, which the report carries as ``limit``, and every slot, besides, to the PSD rule
    ``core._psd`` at the tuple's largest |entry|, the rule the scaling and
    rank tests hold the tuple to."""
    w = _slot_eigenvalues(t)
    psd_v = max(0.0, -float(w.min()))
    trace_v, sum_v = _trace_and_sum_violations(t.matrices, t.matrices.sum(0), np.eye(t.n))
    limit = _ds_limit(t.n, tol)
    ok = max(psd_v, trace_v, sum_v) <= limit
    ok = ok and bool(_psd(w, max_abs(t.matrices), tol).all())
    return DsTupleReport(psd_v, trace_v, sum_v, limit, ok)


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
    if not (0 <= i < t.n and 0 <= j < t.n):
        raise ValueError(f"exchange_value slots ({i}, {j}) must lie in range({t.n})")
    if i == j:
        raise ValueError("exchange_value needs two distinct slots")
    g = grad if grad is not None else gradient(t)
    pair = np.array([t.matrices, t.matrices])
    pair[0, j], pair[1, i] = t.matrices[i], t.matrices[j]
    d_ij, d_ji = _discriminants(pair).tolist()
    traces = [np.trace(t.matrices[i] @ g.Q[j]), np.trace(t.matrices[j] @ g.Q[i])]
    t_ij, t_ji = _as_real(np.array(traces), 1e-8).tolist()
    bound = _EXCHANGE_CHECK_REL * (1.0 + abs(d_ij) + abs(d_ji))
    if abs(d_ij - t_ij) > bound or abs(d_ji - t_ji) > bound:
        raise NumericalInconsistency(
            f"exchange values disagree: direct ({d_ij:.12g}, {d_ji:.12g}) vs "
            f"trace form ({t_ij:.12g}, {t_ji:.12g})"
        )
    return d_ij, d_ji
