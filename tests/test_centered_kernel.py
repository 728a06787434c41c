"""Accuracy and property tests of the centered (Glynn-form) subset kernel.

One eps-enumeration kernel evaluates D (``eval_polarized``), permanents,
the gradients Q_i and hyperbolic mixed values; these tests hold each of them
to an independent route: closed forms at the gate sizes, the permutation-sum
oracle, brute-force permanents and a per-mask polarization of p.  From n = 8
on the kernel groups repeated slots; the grouped path is held to the
permutation-sum oracle, to multilinearity (copies rescaled so that they are
no longer equal take the ungrouped path) and to the plain sign table, and
its gradient gives bitwise-equal slots bitwise-equal Q_i.  A
stack of tuples is held to the single call of each of its tuples, bit for bit,
and so are the permutation oracles to their one-call-per-sigma forms.  The
one walk of S_n that every permutation sum takes, ``_perm_total``, is held
to S_n in order, to one exact sum and one overflow rule across chunks, and
every permutation sum to its bits under a smaller chunk budget.  The
gradient's D is the kernel's D bit for bit and is held to the permutation sum.
Above one chunk, D, Q and real permanents from the reused class buffers and
the column-by-column Glynn product keep the bits of fresh per-chunk tables,
built from the digits of each class as the kernel first built them, and
``np.prod``; the pairwise sum |terms| and the fsum reads are held to
compensated sums of the same floats.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixdisc.discriminant as disc
from mixdisc.core import (
    OutOfRange,
    as_hermitian,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import (
    _CHUNK_BYTES,
    _GROUP_MIN_N,
    MatrixTuple,
    _adjugates,
    _as_real,
    _centered_sum,
    _chunk_classes,
    _class_table,
    _eps_combinations,
    _fsum_rows,
    _gradient_raw,
    _perm_signs,
    _perm_total,
    _perms_and_signs,
    _polarized_raw,
    _slot_groups,
    eval_double_perm,
    eval_polarized,
    eval_sigma_det,
    eval_signed_permanent,
    eval_tensor,
    gradient,
    permanent,
)
from mixdisc.extremal import dnp_family_value, random_ds_tuple
from mixdisc.genaf import af_lower_bound_experiment
from mixdisc.hyperbolic import HyperbolicPencil, mixed_value
from mixdisc.pascal import qp_block, qp_tensor, sample_block_ds

from helpers import random_hermitian, replaced, rho_a


def _distinct_scaled_identities(n):
    """A_j = s_j I / n with distinct dyadic s_j = 1 + j/64, and D = n! prod a_j
    read off the stored diagonals a_j.  The slots are distinct, so the kernel
    takes the ungrouped path at any n.  (Distinct powers of two would spread
    the s_j over 2^(+-n/2), and the centered sum then cancels far beyond 1e-12.)
    """
    mats = [(1.0 + j / 64.0) * np.eye(n) / n for j in range(n)]
    return mats, math.factorial(n) * math.prod(float(m[0, 0]) for m in mats)


def _det_term(n):
    return lambda s: np.linalg.det(s.reshape(-1, n, n))


class TestGateAccuracy:
    @pytest.mark.parametrize("n", [14, 16, 18])
    def test_jn_closed_form(self, n):
        d = eval_polarized(MatrixTuple([np.eye(n) / n] * n))
        expected = math.factorial(n) / n**n
        assert abs(d - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("n", [16, 18])
    def test_distinct_slot_closed_form(self, n):
        mats, expected = _distinct_scaled_identities(n)
        assert abs(eval_polarized(MatrixTuple(mats)) - expected) <= 1e-12 * expected

    def test_dnp_family_n16(self):
        # dnp_family_value itself checks D(P/n, .., P/n) = (n!/n^n) det P;
        # here the identity must hold to 1e-10 relative.
        n = 16
        rng = make_rng(2016)
        for _ in range(10):
            g = (rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))) / math.sqrt(2.0)
            w = g @ g.conj().T
            p = w * (n / float(np.trace(w).real))
            value = dnp_family_value(p)
            expected = math.factorial(n) / n**n * float(np.linalg.det(p).real)
            assert abs(value - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("n", [6, 10, 14, 16])
    def test_magnitude_sum_covers_the_error(self, n):
        # The kernel's second result, sum |terms|, scaled by n times the unit
        # round-off, must cover the actual error on J_n.
        rows = np.array([np.eye(n) / n] * n).reshape(1, n, n * n)
        (value,), (magnitude,) = _centered_sum(rows, _det_term(n))
        assert abs(value - math.factorial(n) / n**n) <= n * 2.0**-53 * magnitude

    def test_magnitude_sum_covers_the_error_on_distinct_slots(self):
        n = 16
        mats, expected = _distinct_scaled_identities(n)
        (value,), (magnitude,) = _centered_sum(np.array(mats).reshape(1, n, n * n), _det_term(n))
        assert abs(value - expected) <= n * 2.0**-53 * magnitude

    def test_af_experiment_n20_is_exact(self):
        r = af_lower_bound_experiment(20)
        assert r.per_e == 2.0
        assert r.per_alpha1 == 2.0**10
        assert r.per_alpha2 == 2.0**10


# ---------------------------------------------------------------------------
# property tests, n <= 7


def _rank_one(n, rng, real):
    v = rng.standard_normal(n) if real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(v, v.conj())


def _wishart(n, rng, real):
    g = rng.standard_normal((n, n)) if real else random_complex_gaussian(n, rng)
    return g @ g.conj().T / n


@st.composite
def psd_tuples(draw):
    """PSD tuples: J_n, real-only ones and mixtures with rank-one and repeated slots."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["jn", "real", "mixed"]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "jn":
        return MatrixTuple([np.eye(n) / n] * n)
    mats = []
    for _ in range(n):
        slot = draw(st.sampled_from(["wishart", "rank_one", "repeat"]))
        real = kind == "real" or draw(st.booleans())
        if slot == "repeat" and mats:
            mats.append(mats[-1])
        elif slot == "rank_one":
            mats.append(_rank_one(n, rng, real))
        else:
            mats.append(_wishart(n, rng, real))
    return MatrixTuple(mats)


def _term_bounds(mats) -> float:
    """2^(1-n) sum over eps of ||sum eps_i A_i||_2^n, summed by the kernel.

    Each summand bounds its determinant (Hadamard), so n u times the sum
    bounds the rounding of the kernel whatever the conditioning; the kernel's
    own sum |terms| does not when D = 0 (repeated rank-one slots), where every
    computed determinant is itself rounding noise.  It is at most
    (sum ||A_i||_2)^n, the scale these tests used before.
    """
    n = len(mats)
    rows = np.asarray(mats).reshape(1, n, -1)
    return _centered_sum(rows, lambda s: np.linalg.norm(s.reshape(-1, n, n), 2, axis=(1, 2)) ** n)[1][0]


def _close(a, b, scale, n) -> bool:
    """Within a relative 1e-10, or 8 n u times ``scale``: a bound on the terms
    both routes sum, in which their rounding error is n u."""
    return abs(a - b) <= 1e-10 * abs(b) + 8 * n * 2.0**-53 * scale


@settings(max_examples=60, deadline=None)
@given(psd_tuples())
def test_polarized_matches_sigma_det(t):
    assert _close(eval_polarized(t), eval_sigma_det(t), _term_bounds(t.matrices), t.n)


@settings(max_examples=40, deadline=None)
@given(psd_tuples(), st.integers(0, 2**32 - 1))
def test_gradient_is_the_slot_functional(t, seed):
    rng = make_rng(seed)
    g = gradient(t)
    for i in range(t.n):
        x = random_hermitian(t.n, rng)
        t_x = replaced(t, i, x)
        via_q = float(np.trace(x @ g.Q[i]).real)
        assert _close(via_q, eval_polarized(t_x), _term_bounds(t_x.matrices), t.n)


def _brute_permanent(a):
    n = a.shape[0]
    return sum(math.prod(a[i, s[i]] for i in range(n)) for s in itertools.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.booleans(), st.integers(0, 2**32 - 1))
def test_permanent_matches_brute_force(n, real, seed):
    rng = make_rng(seed)
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    value = permanent(a)
    assert isinstance(value, complex) != real
    assert _close(value, _brute_permanent(a), _brute_permanent(np.abs(a)), n)


def _per_mask_mixed_value(pencil, xs):
    """sum over S of (-1)^(n-|S|) p(sum_{i in S} x_i), one det per mask, and
    the sum over S of ||B(sum_{i in S} x_i)||_2^n, which bounds its terms."""
    n = len(xs)
    total = bounds = 0.0
    for mask in range(1, 1 << n):
        members = [xs[i] for i in range(n) if mask >> i & 1]
        sign = -1.0 if (n - len(members)) % 2 else 1.0
        point = np.sum(members, axis=0)
        total += sign * pencil.value(point)
        bounds += float(np.linalg.norm(pencil.at(point), 2)) ** n
    return total, bounds


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_mixed_value_matches_per_mask_polarization(n, m, real, seed):
    rng = make_rng(seed)
    extra = [_wishart(n, rng, real) - _wishart(n, rng, real) for _ in range(m - 1)]
    pencil = HyperbolicPencil([np.eye(n)] + extra, np.eye(m)[0])
    xs = [rng.standard_normal(m) for _ in range(n)]
    reference, bounds = _per_mask_mixed_value(pencil, xs)
    scale = _term_bounds([pencil.at(x) for x in xs]) + bounds
    assert _close(mixed_value(pencil, xs), reference, scale, n)


# ---------------------------------------------------------------------------
# the grouped path: repeated slots, n >= 8


def _plain_sign_table(k, n):
    """The ungrouped sign table as the kernel first built it: bit i of k set
    means eps_i = -1, eps[n-1] = +1, and the sign is prod(eps)."""
    bits = (k[:, None] >> np.arange(n - 1)) & 1
    eps = np.ones((len(k), n))
    eps[:, : n - 1] -= 2.0 * bits
    return eps, np.where(bits.sum(axis=1) % 2 == 0, 1.0, -1.0)


@pytest.mark.parametrize("n", range(2, 15))
def test_single_slot_profile_is_the_plain_sign_table(n):
    coef, sign = _class_table((1,) * n, (1,) * (n - 1) + (0,))
    eps, plain_sign = _plain_sign_table(np.arange(1 << (n - 1)), n)
    assert coef.dtype == eps.dtype
    assert np.array_equal(coef, eps) and np.array_equal(sign, plain_sign)


def test_distinct_rows_stream_the_plain_sign_table_at_n16():
    # Above one chunk the table is generated per chunk; check the third chunk
    # of distinct rows, and that its combinations are eps @ rows bit for bit.
    n = 16
    rows = make_rng(16).standard_normal((n, 5))
    size = _chunk_classes(8 * 5)
    chunks = _eps_combinations(rows[None])
    for _ in range(2):
        next(chunks)
    eps, sign, comb = next(chunks)
    plain_eps, plain_sign = _plain_sign_table(np.arange(2 * size, 3 * size), n)
    assert np.array_equal(eps, plain_eps) and np.array_equal(sign, plain_sign)
    assert np.array_equal(comb[0], plain_eps @ rows)


@pytest.mark.parametrize(
    "labels",
    [[0] * 8, [0, 1, 0, 1, 2, 2, 3, 0], [0] * 7 + [1], [1] + [0] * 7, [0, 1, 2, 3, 4, 5, 6, 2]],
)
def test_class_sums_are_the_ungrouped_sums(labels):
    # For any function f of the combination, sum sign * f over the classes
    # equals the sum over all 2^(n-1) sign vectors; slot by slot,
    # sum sign * eps_i * h does for h homogeneous of degree n - 1, as the
    # gradient's adjugates are.
    n = len(labels)
    rows = make_rng(8).standard_normal((max(labels) + 1, 3))[labels]

    def f(comb):  # neither even nor odd, so no class sum cancels by symmetry
        return np.exp(comb @ np.array([0.1, 0.2, 0.3]))

    forms = make_rng(9).standard_normal((3, n - 1))

    def h(comb):  # a product of n - 1 linear forms: homogeneous of degree n - 1
        return np.prod(comb @ forms, axis=1)

    total, per_slot = 0.0, np.zeros(n)
    for eps, sign, comb in _eps_combinations(rows[None]):
        assert len(sign) <= 1 << (n - 1)
        total += (sign * f(comb[0])).sum()
        per_slot += eps.T @ (sign * h(comb[0]))
    plain_eps, plain_sign = _plain_sign_table(np.arange(1 << (n - 1)), n)
    combs = plain_eps @ rows
    assert total == pytest.approx((plain_sign * f(combs)).sum(), abs=1e-9)
    terms = plain_sign * h(combs)
    assert np.abs(per_slot - plain_eps.T @ terms).max() <= 1e-12 * np.abs(terms).sum()


# Slot patterns of an n = 8 tuple: which slots share one matrix.
_PATTERNS = {
    "all_equal": st.just([0] * 8),
    "pairs": st.permutations([0, 0, 1, 1, 2, 2, 3, 3]),
    "last_repeated": st.integers(0, 6).map(lambda j: list(range(7)) + [j]),
    "one_odd": st.permutations([0] * 7 + [1]),
    "any": st.lists(st.integers(0, 3), min_size=8, max_size=8),
}


@st.composite
def repeated_slot_tuples(draw):
    """n = 8 PSD tuples whose slots repeat in one of the ``_PATTERNS``."""
    n = 8
    labels = draw(st.sampled_from(sorted(_PATTERNS)).flatmap(_PATTERNS.get))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    distinct = {
        label: (_rank_one if draw(st.booleans()) else _wishart)(n, rng, real)
        for label in sorted(set(labels))
    }
    return MatrixTuple([distinct[label] for label in labels])


@settings(max_examples=15, deadline=None)
@given(repeated_slot_tuples())
def test_grouped_polarized_matches_sigma_det(t):
    assert _close(eval_polarized(t), eval_sigma_det(t), _term_bounds(t.matrices), t.n)


def _broadcast_slot_groups(flat):
    """:func:`_slot_groups` by one broadcast compare of every pair of rows,
    with no first-entry prefilter: the reference for its keyed lookup."""
    n = flat.shape[1]
    bits = flat[0].view(np.uint64)
    first = (bits[:, None] == bits[None]).all(-1).argmax(1)
    if n < _GROUP_MIN_N or (first == np.arange(n)).all():
        return flat, (1,) * n, (1,) * (n - 1) + (0,), None
    reps, labels, sizes = np.unique(first, return_inverse=True, return_counts=True)
    free = sizes.copy()
    free[labels[-1]] -= 1
    return flat[:, reps], tuple(sizes.tolist()), tuple(free.tolist()), labels


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=6, max_size=18),
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
)
def test_slot_groups_match_the_broadcast_compare(labels, width, seed):
    # Rows of a label are bitwise copies; a label above 2 is the row of
    # label - 3 with its last entry -0.0 for 0.0, equal to it under == but
    # not bitwise, so a group of its own.
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, (3, width)) / 2.0
    base[:, 0] = 1.0  # equal first entries: the prefilter passes them all on
    base[:, -1] = 0.0
    twins = base.copy()
    twins[:, -1] = -0.0
    flat = np.concatenate((base, twins))[labels][None]
    got, want = _slot_groups(flat), _broadcast_slot_groups(flat)
    assert got[0].tobytes() == want[0].tobytes() and got[1:3] == want[1:3]
    assert (got[3] is None) == (want[3] is None)
    if got[3] is not None:
        assert got[3].tolist() == want[3].tolist()


@pytest.mark.parametrize("seed", [0, 134])
def test_cancelling_terms_pass_the_residue_gate(seed):
    # Seven complex rank-one slots, slot 3 repeated: D = 0 and every term
    # either route sums is rounding noise.  A gate relative to |D| raised on
    # seed 0 in eval_sigma_det and on seed 134 in eval_polarized
    # (D = -5.6e-9 + 1.9e-9j).
    rng = make_rng(seed)
    distinct = [_rank_one(8, rng, real=False) for _ in range(7)]
    t = MatrixTuple([distinct[i] for i in [0, 1, 2, 3, 4, 5, 6, 3]])
    bound = _term_bounds(t.matrices)
    assert _close(eval_polarized(t), 0.0, bound, t.n)
    assert _close(eval_sigma_det(t), 0.0, bound, t.n)


@settings(max_examples=30, deadline=None)
@given(repeated_slot_tuples(), st.integers(0, 2**32 - 1))
def test_grouped_gradient_is_the_slot_functional(t, seed):
    rng = make_rng(seed)
    g = gradient(t)
    for i in range(t.n):
        x = random_hermitian(t.n, rng)
        t_x = replaced(t, i, x)
        via_q = float(np.trace(x @ g.Q[i]).real)
        assert _close(via_q, eval_polarized(t_x), _term_bounds(t_x.matrices), t.n)


def _two_wishart_slots_repeated():
    """Two complex Wishart slots at n = 9, repeated 5 and 4 times."""
    rng = make_rng(9)
    a, b = _wishart(9, rng, real=False), _wishart(9, rng, real=False)
    return MatrixTuple([a, b, a, b, a, b, a, b, a])


@pytest.mark.parametrize(
    "t",
    [MatrixTuple([np.eye(n) / n] * n) for n in range(8, 13)] + [_two_wishart_slots_repeated()],
    ids=[f"J{n}" for n in range(8, 13)] + ["wishart5+4"],
)
def test_equal_slots_get_bitwise_equal_gradients(t):
    # D is symmetric in its slots, so bitwise-equal slots, slot n-1 included,
    # have the same Q_i, to the last bit.
    q = gradient(t).Q
    rows = t.matrices.reshape(t.n, -1)
    for i in range(t.n):
        first = next(j for j in range(t.n) if rows[j].tobytes() == rows[i].tobytes())
        assert q[i].tobytes() == q[first].tobytes(), (i, first)


# Slot labels at n = 12 and 16: groups of two to four, slot n-1 in a group.
_GROUPED_LABELS = {
    12: [0, 1, 0, 2, 2, 2, 3, 1, 3, 3, 4, 0],
    16: [0, 1, 1, 2, 0, 3, 3, 3, 2, 4, 4, 4, 4, 5, 6, 0],
}
# Distinct powers of two with product 1 for the copies of a group of size k.
_COPY_SCALES = {1: [1.0], 2: [0.5, 2.0], 3: [0.5, 1.0, 2.0], 4: [0.25, 0.5, 2.0, 4.0]}


def _rescaled_copies(labels):
    """Per-slot scales that make the copies of each group distinct while
    keeping, by multilinearity, every slot-multilinear value unchanged."""
    scales = np.empty(len(labels))
    for label in set(labels):
        where = [i for i, x in enumerate(labels) if x == label]
        scales[where] = _COPY_SCALES[len(where)]
    return scales


@pytest.mark.parametrize("n", [12, 16])
def test_grouped_path_matches_the_multilinear_reference(n):
    labels = _GROUPED_LABELS[n]
    scales = _rescaled_copies(labels)
    rng = make_rng(n)
    base = [_wishart(n, rng, real=False) for _ in range(max(labels) + 1)]
    mats = np.array([base[x] for x in labels])
    scaled = scales[:, None, None] * mats
    assert len({m.tobytes() for m in scaled}) == n  # the reference is ungrouped
    # The values are far from zero, so a relative 1e-10 is the whole rule here.
    reference = eval_polarized(MatrixTuple(scaled))
    assert eval_polarized(MatrixTuple(mats)) == pytest.approx(reference, rel=1e-10)

    c = rng.standard_normal((max(labels) + 1, n))[labels]
    assert permanent(c) == pytest.approx(permanent(scales[:, None] * c), rel=1e-10)

    m = 3
    extra = [_wishart(n, rng, True) - _wishart(n, rng, True) for _ in range(m - 1)]
    pencil = HyperbolicPencil([np.eye(n)] + extra, np.eye(m)[0])
    xs = rng.standard_normal((max(labels) + 1, m))[labels]
    reference = mixed_value(pencil, scales[:, None] * xs)
    assert mixed_value(pencil, xs) == pytest.approx(reference, rel=1e-10)

    # sum |terms| of the grouped kernel is the ungrouped sum, term by term.
    rows = mats.reshape(n, n * n)
    eps, _ = _plain_sign_table(np.arange(1 << (n - 1)), n)
    ungrouped = 2.0 ** (1 - n) * math.fsum(np.abs(_det_term(n)(eps @ rows)))
    assert abs(_centered_sum(rows[None], _det_term(n))[1][0] - ungrouped) <= 1e-12 * ungrouped



# ---------------------------------------------------------------------------
# stacks of tuples: each tuple bit for bit as its single call


def _bytes(z) -> bytes:
    return np.complex128(z).tobytes()


def _assert_stack_matches_single_calls(mats):
    """``mats`` is (B, n, n, n): the determinant and permanent forms of the
    kernel on the stack against each tuple alone (B = 1)."""
    b, n = mats.shape[:2]
    values = _polarized_raw(mats)
    assert values.shape == (b,)
    for i in range(b):
        (single,) = _polarized_raw(mats[i : i + 1])
        assert _bytes(values[i]) == _bytes(single)
    if b > 1:
        assert _bytes(values[0]) == _bytes(_polarized_raw(mats[0][None])[0])
    rows = mats[:, :, 0, :]  # n x n matrices as the rows of a permanent
    values, magnitudes = _centered_sum(rows, lambda s: np.prod(s, axis=1))
    for i in range(b):
        (single,), (magnitude,) = _centered_sum(rows[i : i + 1], lambda s: np.prod(s, axis=1))
        assert _bytes(values[i]) == _bytes(single)
        assert magnitudes[i].tobytes() == magnitude.tobytes()


def _stack(n, kinds, rng):
    """One tuple per kind: "complex" Wishart slots, "real" ones, or "jn"."""
    tuples = []
    for kind in kinds:
        if kind == "jn":
            tuples.append([np.eye(n) / n] * n)
        else:
            tuples.append([_wishart(n, rng, kind == "real") for _ in range(n)])
    return np.array(tuples, dtype=np.complex128)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize(
    "kinds",
    [["complex"] * 4, ["real"] * 3, ["real", "complex", "jn", "complex", "real"], ["complex"]],
)
def test_stack_matches_single_calls(n, kinds):
    _assert_stack_matches_single_calls(_stack(n, kinds, make_rng(100 * n + len(kinds))))


def test_stack_from_the_grouping_size_runs_tuple_by_tuple():
    # n >= _GROUP_MIN_N: tuples with repeated slots take the grouped path
    # one by one, beside a tuple of distinct slots and a real one.
    n = _GROUP_MIN_N
    rng = make_rng(n)
    base = [_wishart(n, rng, real=False) for _ in range(3)]
    repeated = [base[x] for x in [0, 1, 0, 1, 2, 2, 0, 1]]
    distinct = [_wishart(n, rng, real=False) for _ in range(n)]
    real = [_wishart(n, rng, real=True) for _ in range(n)]
    mats = np.array([repeated, [np.eye(n) / n] * n, distinct, real], dtype=np.complex128)
    _assert_stack_matches_single_calls(mats)
    assert eval_polarized(MatrixTuple(mats[0])) == _polarized_raw(mats[:1])[0].real


def test_single_tuple_stack_is_eval_polarized():
    rng = make_rng(5)
    for n in range(1, 8):
        t = MatrixTuple([_wishart(n, rng, real=False) for _ in range(n)])
        (raw,) = _polarized_raw(t.matrices[None])
        assert eval_polarized(t) == raw.real


# ---------------------------------------------------------------------------
# the permutation oracles and the gradient's D on the kernel


def _oracle_tuples(n, rng):
    """A complex, an exactly real, a repeated-slot and a rank-one tuple."""
    base = [_wishart(n, rng, real=False) for _ in range(2)]
    return [
        MatrixTuple([_wishart(n, rng, real=False) for _ in range(n)]),
        MatrixTuple([_wishart(n, rng, real=True) for _ in range(n)]),
        MatrixTuple([base[i % 2] for i in range(n)]),
        MatrixTuple([_rank_one(n, rng, real=False) for _ in range(n)]),
    ]


def _signed_permanent_per_sigma(t):
    """eval_signed_permanent as one ``permanent`` call per sigma."""
    n = t.n
    perms, signs = _perms_and_signs(n)
    idx = np.arange(n)
    totals = np.empty(len(perms), dtype=np.complex128)
    for s, sigma in enumerate(perms):
        totals[s] = signs[s] * permanent(t.matrices[:, idx, sigma.astype(np.intp)].T)
    return _as_real(complex(math.fsum(totals.real), math.fsum(totals.imag)))


def _sigma_det_whole_table(t):
    """eval_sigma_det with every A_sigma of S_n stacked at once (n <= 8)."""
    n = t.n
    perms = _perms_and_signs(n)[0]
    stacked = np.empty((len(perms), n, n), dtype=np.complex128)
    for i in range(n):
        stacked[:, :, i] = t.matrices[perms[:, i], :, i]
    dets = np.linalg.det(stacked)
    return _as_real(complex(math.fsum(dets.real), math.fsum(dets.imag)))


@pytest.mark.parametrize("n", range(1, 8))
def test_signed_permanent_keeps_the_per_sigma_bits(n):
    for t in _oracle_tuples(n, make_rng(500 + n)) + [MatrixTuple([np.eye(n) / n] * n)]:
        assert eval_signed_permanent(t).hex() == _signed_permanent_per_sigma(t).hex()


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_det_keeps_the_whole_table_bits(n):
    for t in _oracle_tuples(n, make_rng(600 + n)):
        assert eval_sigma_det(t).hex() == _sigma_det_whole_table(t).hex()


@pytest.mark.parametrize("n", [3, 7, 8, 9])
def test_perm_total_walks_s_n_in_order(n):
    # Chunks of at most the budget's permutations, with their signs: slices
    # of the cached table up to n = 8, generated above.  Together they are
    # S_n in lexicographic order.
    chunks = []

    def terms(perms, signs):
        chunks.append((perms.copy(), signs.copy()))
        return np.zeros(len(perms))

    assert _perm_total(n, 16 * n * n, terms) == 0
    assert all(0 < len(p) <= _chunk_classes(16 * n * n) for p, _ in chunks)
    assert (len(chunks) > 1) is (n >= 7)
    perms, signs = (np.concatenate(c) for c in zip(*chunks))
    expected = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    assert np.array_equal(perms, expected)
    assert np.array_equal(signs, _perm_signs(expected))
    if n == 3:
        assert signs.tolist() == [1, -1, -1, 1, 1, -1]


def test_perm_total_is_one_exact_sum_across_chunks():
    # A chunk of one permutation each: terms that cancel across chunks sum
    # to exactly 1, with chunks of real terms (qp_block's block tuples of
    # zero blocks, say) beside complex ones.
    values = iter([1e16 + 1j, 1.0 - 1j, -1e16, 0.0, 0j, 0.0])

    def terms(perms, signs):
        assert len(perms) == 1
        return np.array([next(values)])

    assert _perm_total(3, _CHUNK_BYTES, terms) == complex(1.0, 0.0)
    assert next(values, None) is None


def test_perm_total_raises_out_of_range_from_a_later_chunk():
    # Only the permutations with sigma(0) = n - 1, the last ones, overflow:
    # the chunks before theirs are summed, and then theirs raises.
    n = 8
    calls = []

    def terms(perms, signs):
        calls.append(bool((perms[:, 0] == n - 1).any()))
        return signs * np.where(perms[:, 0] == n - 1, 1e300, 1.0) * 1e10

    with pytest.raises(OutOfRange):
        _perm_total(n, 16 * n * n, terms)
    assert len(calls) > 1 and calls[-1] and not any(calls[:-1])


def _perm_routes():
    """The value of every permutation sum of the package, as hex strings:
    the four oracles on a complex and a real Wishart tuple up to their
    gates, eval_sigma_det at n = 9 (the generated path), and both QP routes
    on a sampled block doubly stochastic matrix and on the real rho_A."""
    out = []
    for n in range(2, 8):
        rng = make_rng(800 + n)
        for real in (False, True):
            t = MatrixTuple([_wishart(n, rng, real=real) for _ in range(n)])
            routes = [eval_sigma_det, eval_signed_permanent] + [eval_double_perm, eval_tensor] * (n <= 6)
            out += [f(t).hex() for f in routes]
            if n <= 6:
                rhos = [rho_a(t)] + [sample_block_ds(n, n)] * (not real)
                out += [f(rho).hex() for rho in rhos for f in [qp_block] + [qp_tensor] * (n <= 4)]
    rng = make_rng(809)
    out.append(eval_sigma_det(MatrixTuple([_wishart(9, rng, real=False) for _ in range(9)])).hex())
    return out


def test_perm_total_keeps_every_routes_bits_under_a_smaller_budget(monkeypatch):
    before = _perm_routes()
    # One leading permutation of qp_tensor's n = 4 terms per chunk: every
    # route takes several chunks at its gate, and the kernel calls of
    # qp_block and eval_signed_permanent keep theirs (64 classes of at most
    # 1 KiB each).
    budget = 16 * 4 * 24**3
    monkeypatch.setattr(disc, "_CHUNK_BYTES", budget)
    for entry_bytes, count in [
        (16 * 7 * 7, 5040),  # eval_sigma_det, n = 7
        (16 * 9 * 9, 362880),  # eval_sigma_det, n = 9
        (16 * 6 * 720, 720),  # eval_double_perm, n = 6
        (16 * 7 * 2**6, 5040),  # eval_signed_permanent, n = 7
        (16 * 6 * 6 * 2**5, 720),  # qp_block, n = 6
        (16 * 4 * 24**3, 24),  # qp_tensor, n = 4
    ]:
        assert 0 < _chunk_classes(entry_bytes) < count
    assert _chunk_classes(16 * 6 * 6) >= 64
    assert _perm_routes() == before


@pytest.mark.parametrize("n", range(2, 9))
def test_gradient_value_matches_sigma_det(n):
    for t in _oracle_tuples(n, make_rng(700 + n)):
        assert _close(gradient(t).value, eval_sigma_det(t), _term_bounds(t.matrices), n)


@pytest.mark.parametrize("n", range(8, 13))
def test_grouped_gradient_value_on_jn(n):
    # J_n takes the grouped path: n determinants give D.
    expected = math.factorial(n) / n**n
    assert abs(gradient(MatrixTuple([np.eye(n) / n] * n)).value - expected) <= 1e-12 * expected


def _gradient_d_tuples(n, seed):
    """A doubly stochastic, a Wishart, a rank-one + 1e-6 I and a
    repeated-slot tuple, seeded."""
    rng = make_rng(seed)
    base = [_wishart(n, rng, real=False) for _ in range(2)]
    return [
        random_ds_tuple(n, seed),
        MatrixTuple([_wishart(n, rng, real=False) for _ in range(n)]),
        MatrixTuple([_rank_one(n, rng, real=False) + 1e-6 * np.eye(n) for _ in range(n)]),
        MatrixTuple([base[i % 2] for i in range(n)]),
    ]


def _assert_gradient_reads_the_kernel(t):
    # One D per tuple: the gradient sums the kernel's own determinants.
    n = t.n
    _, value, magnitude = _gradient_raw(t.matrices)
    kernel = _centered_sum(t.matrices.reshape(1, n, n * n), _det_term(n))
    assert gradient(t).value == value == eval_polarized(t)
    assert magnitude == kernel[1][0]


@pytest.mark.parametrize("n", range(2, 9))
def test_gradient_d_is_the_kernel_d(n):
    for seed in range(5):
        for t in _gradient_d_tuples(n, 100 * n + seed):
            _assert_gradient_reads_the_kernel(t)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_grouped_gradient_d_is_the_kernel_d(n):
    _assert_gradient_reads_the_kernel(MatrixTuple([np.eye(n) / n] * n))


# ---------------------------------------------------------------------------
# the reduction stage: buffered class tables, the Glynn term and the sums


def _beside(lo, hi):
    """The columns of ``lo`` followed by the one row ``hi`` on every row."""
    return np.concatenate((lo, np.broadcast_to(hi, (len(lo), hi.shape[1]))), axis=1)


def _count_vectors(sizes, free, c):
    """Coefficients and signs of the count vectors ``c`` (one per row, int64)
    of groups of ``sizes`` equal slots, ``free`` of whose signs are free,
    from the digits themselves: the table as the kernel first built it,
    before it wrote each group's column by broadcasting."""
    coef = np.asarray(sizes, dtype=float) - 2.0 * c
    weight = np.ones(len(c))
    for g, f in enumerate(free):
        if f > 1:
            weight *= np.array([math.comb(f, j) for j in range(f + 1)], dtype=float)[c[:, g]]
    return coef, np.where(c.sum(axis=1) % 2 == 0, weight, -weight)


def _concatenated_classes(rows):
    """The classes of :func:`_eps_combinations` with a fresh coefficient table
    from :func:`_count_vectors` concatenated per chunk, slot weights
    coef / size taken from it, and fresh combinations, as the kernel built
    them before it kept one buffer of each; the chunks split the groups
    where the kernel's do: after the leading groups whose classes fill
    :func:`_chunk_classes`."""
    rows = np.ascontiguousarray(rows)
    if np.iscomplexobj(rows) and not np.count_nonzero(rows.imag):
        rows = np.ascontiguousarray(rows.real)
    flat = rows.view(np.float64)
    reps, sizes, free, labels = _slot_groups(flat)
    counts = np.cumprod(np.array(free) + 1)
    low = int((counts <= _chunk_classes(8 * flat.shape[2])).sum())
    radix = np.array(free[:low]) + 1
    digits = np.arange(int(np.prod(radix)))[:, None] // (np.cumprod(radix) // radix) % radix
    lo_coef, lo_sign = _count_vectors(sizes[:low], free[:low], digits)
    highs = [()]
    if low < len(free):
        highs = itertools.product(*(range(f + 1) for f in reversed(free[low:])))
    for high in highs:
        coef, sign = lo_coef, lo_sign
        if high:
            hi_coef, hi_sign = _count_vectors(sizes[low:], free[low:], np.array([high[::-1]]))
            coef, sign = _beside(lo_coef, hi_coef), lo_sign * hi_sign
        eps = coef if labels is None else coef[:, labels] / np.array(sizes, dtype=float)[labels]
        yield eps, sign, np.matmul(coef, reps).view(rows.dtype)


def _reference_d_and_q(t):
    """D and the Q_i of ``t`` from :func:`_concatenated_classes`, each chunk
    consumed after the whole enumeration."""
    n = t.n
    chunks = list(_concatenated_classes(t.matrices.reshape(1, n, n * n)))
    terms, q = [], 0
    for eps, sign, comb in chunks:
        adj, det = _adjugates(comb.reshape(-1, n, n))
        q = q + (eps * sign[:, None]).T @ adj.reshape(-1, n * n)
        terms.append(sign * det)
    scale = 2.0 ** (1 - n)
    d = scale * math.fsum(np.concatenate(terms).real)
    return d, as_hermitian(q.reshape(n, n, n) * scale, tol=1e-6)


def _reference_permanent(c):
    """Glynn's sum over :func:`_concatenated_classes` with ``np.prod`` terms."""
    n = len(c)
    terms = [sign * np.prod(comb.reshape(-1, n), axis=1) for _, sign, comb in _concatenated_classes(c[None])]
    terms = np.concatenate(terms)
    scale = 2.0 ** (1 - n)
    if np.iscomplexobj(terms):
        return scale * complex(math.fsum(terms.real), math.fsum(terms.imag))
    return scale * math.fsum(terms)


def _pairs_tuple(n, seed):
    """n Wishart slots in n/2 bitwise-equal pairs: 3^(n/2-1) * 2 classes."""
    rng = make_rng(seed)
    base = [_wishart(n, rng, real=False) for _ in range(n // 2)]
    return MatrixTuple([base[i // 2] for i in range(n)])


@pytest.mark.parametrize(
    "t, classes",
    [(MatrixTuple(_distinct_scaled_identities(n)[0]), 2 ** (n - 1)) for n in (15, 16)]
    + [(_pairs_tuple(18, 18), 13122)],
    ids=["distinct15", "distinct16", "pairs18"],
)
def test_multi_chunk_values_keep_the_concatenated_table_bits(t, classes):
    # Above one chunk the kernel writes each chunk's classes into reused
    # buffers; D and every Q_i keep the bits of fresh tables per chunk.
    _, _, free, _ = _slot_groups(t.matrices.reshape(1, t.n, -1).view(np.float64))
    assert math.prod(f + 1 for f in free) == classes > _chunk_classes(16 * t.n * t.n)
    d, q = _reference_d_and_q(t)
    g = gradient(t)
    assert eval_polarized(t).hex() == g.value.hex() == d.hex()
    assert g.Q.tobytes() == q.tobytes()


def test_real_permanent_keeps_the_np_prod_bits_at_n16():
    n = 16
    c = make_rng(16).standard_normal((n, n))
    assert permanent(c).hex() == _reference_permanent(c).hex()
    b = np.eye(n) + np.roll(np.eye(n), 1, axis=1)
    assert permanent(b) == _reference_permanent(b) == 2.0


@pytest.mark.parametrize("n", range(1, 11))
def test_complex_permanent_within_1e14_of_np_prod(n):
    # Complex products one column at a time round differently from np.prod;
    # entries 1 + 0.5 z keep the sum well conditioned, so that shows as
    # relative error at the level of the unit round-off.
    for seed in range(5):
        rng = make_rng(100 * n + seed)
        c = 1.0 + 0.5 * random_complex_gaussian(n, rng)
        value, reference = permanent(c), _reference_permanent(c)
        assert abs(value - reference) <= 1e-14 * abs(reference)


@pytest.mark.parametrize("n", [6, 10, 16])
def test_magnitude_is_the_compensated_sum_within_1e13(n):
    # sum |terms| is a pairwise sum; it stays within 1e-13 of the correctly
    # rounded sum of the same terms.
    t = MatrixTuple([random_hermitian(n, make_rng(1000 + n + j)) for j in range(n)])
    rows = t.matrices.reshape(1, n, n * n)
    terms = [sign * _det_term(n)(comb[0]) for _, sign, comb in _eps_combinations(rows)]
    exact = 2.0 ** (1 - n) * math.fsum(np.abs(np.concatenate(terms)))
    (magnitude,) = _centered_sum(rows, _det_term(n))[1]
    assert abs(magnitude - exact) <= 1e-13 * exact


def _fsum_rows_cases():
    rng = make_rng(40000)
    tiny = 5e-324
    yield "zeros", np.array([[0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0]])
    yield "subnormal", np.array([[tiny, -tiny, 3 * tiny, 2.0**-1030], [-tiny] * 4])
    for size in (1, 2, 7, 8, 9, 33, 1000, 40000):
        x = rng.standard_normal(size) * np.exp2(rng.integers(-60, 60, size))
        # Heavy cancellation: each value with its negation, and 1 on top.
        yield f"random{size}", np.stack([x, np.concatenate([x[: size // 2], -x[: size // 2], [1.0] * (size % 2)])])


@pytest.mark.parametrize("case", list(_fsum_rows_cases()), ids=lambda c: c[0])
def test_fsum_reads_give_the_in_place_bits(case):
    _, a = case
    expected = [math.fsum(row) for row in a]
    assert [v.hex() for v in _fsum_rows(a)] == [v.hex() for v in expected]
