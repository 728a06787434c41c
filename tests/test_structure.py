import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdisc import structure
from mixdisc.core import (
    DEFAULT_TOL,
    MixdiscError,
    NotDoublyStochastic,
    NotUnitary,
    PreconditionViolated,
    make_rng,
    random_complex_gaussian,
    random_psd,
    rank_psd,
    spawn_seeds,
)
from mixdisc.discriminant import MatrixTuple, diagonal_tuple, eval_polarized, permanent
from mixdisc.extremal import random_ds_tuple
from mixdisc.structure import (
    _first_subset,
    decompose,
    is_fully_indecomposable_support,
    is_indecomposable,
    m_matrix,
    positivity_rank_test,
)


def block_diag_ds(seed):
    """A decomposable doubly stochastic 4-tuple built from two 2x2 blocks."""
    a = random_ds_tuple(2, seed)
    b = random_ds_tuple(2, seed + 1)
    z = np.zeros((2, 2))
    mats = [np.block([[m, z], [z, z]]) for m in a.matrices]
    mats += [np.block([[z, z], [z, m]]) for m in b.matrices]
    return MatrixTuple(mats), a, b


class TestIndecomposability:
    def test_jn_indecomposable(self):
        t = MatrixTuple([np.eye(3) / 3] * 3)
        ok, witness = is_indecomposable(t)
        assert ok and witness is None

    def test_diagonal_permutation_tuple_decomposable(self):
        t = MatrixTuple([np.diag([1.0 if i == j else 0.0 for i in range(3)]) for j in range(3)])
        ok, witness = is_indecomposable(t)
        assert not ok
        assert witness == (0,)

    def test_random_ds_indecomposable(self):
        t = random_ds_tuple(4, 3)
        assert is_indecomposable(t)[0]

    def test_positivity_rank_test(self):
        t = MatrixTuple([np.eye(3) / 3] * 3)
        assert positivity_rank_test(t)
        bad = MatrixTuple([np.diag([1.0, 0, 0])] * 3)
        assert not positivity_rank_test(bad)

    @pytest.mark.parametrize(
        "diagonals",
        [
            [[1.0, 0.0]] * 2,
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
            [[1.0, 1.0, 0.0]] * 3,
        ],
    )
    def test_positivity_needs_the_full_sum_to_have_full_rank(self, diagonals):
        # Every proper subset passes the weak rank test; only S = all slots
        # fails, and D = 0.
        t = MatrixTuple([np.diag(d) for d in diagonals])
        assert eval_polarized(t) == 0.0
        assert not positivity_rank_test(t)

    def test_positivity_of_0_1_diagonal_tuples_is_a_perfect_matching(self):
        # D(diagonal_tuple(C)) = per(C), and by Hall's theorem the weak rank
        # condition over all subsets holds exactly when per(C) > 0.
        rng = make_rng(17)
        outcomes = set()
        for _ in range(50):
            for n in range(1, 7):
                c = (rng.random((n, n)) < rng.uniform(0.1, 0.6)).astype(float)
                expected = permanent(c) > 0.5
                assert positivity_rank_test(diagonal_tuple(c)) is expected
                outcomes.add(expected)
        assert outcomes == {True, False}


    def test_non_psd_tuple_is_a_precondition_violation(self):
        t = MatrixTuple([np.diag([1.0, -1.0, 0.0])] * 3)
        with pytest.raises(PreconditionViolated):
            is_indecomposable(t)
        with pytest.raises(PreconditionViolated):
            positivity_rank_test(t)


class TestDecompose:
    def test_indecomposable_is_one_part(self):
        t = random_ds_tuple(3, 7)
        res = decompose(t)
        assert len(res.parts) == 1
        assert res.product_check < 1e-8

    def test_block_diagonal_splits(self):
        t, a, b = block_diag_ds(11)
        res = decompose(t)
        assert len(res.parts) == 2
        index_sets = sorted(p[0] for p in res.parts)
        assert index_sets == [(0, 1), (2, 3)]
        prod = 1.0
        for _, _, sub in res.parts:
            prod *= eval_polarized(sub)
        assert eval_polarized(t) == pytest.approx(prod, rel=1e-8)

    def test_requires_ds(self):
        t = MatrixTuple([np.eye(3)] * 3)
        with pytest.raises(NotDoublyStochastic):
            decompose(t)


class TestMMatrix:
    def test_identity_basis_gives_diagonals(self):
        t = random_ds_tuple(3, 5)
        m = m_matrix(t, np.eye(3))
        for i in range(3):
            for j in range(3):
                assert m[i, j] == pytest.approx(float(t[j][i, i].real), abs=1e-12)

    def test_rows_and_columns_sum_to_one(self):
        # For a doubly stochastic tuple and any unitary W, M(A, W) is DS.
        t = random_ds_tuple(4, 9)
        g = random_psd(4, 77)
        _, w = np.linalg.eigh(g)
        m = m_matrix(t, w)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-7)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(4), atol=1e-7)
        assert np.all(m >= -1e-12)

    def test_rejects_non_unitary(self):
        t = random_ds_tuple(3, 5)
        with pytest.raises(NotUnitary):
            m_matrix(t, np.ones((3, 3)))


class TestSupportConnectivity:
    def test_connected(self):
        m = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        assert is_fully_indecomposable_support(m, 1e-12)

    def test_block_diagonal_disconnected(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        assert not is_fully_indecomposable_support(m, 1e-12)


    def test_zero_and_one_by_one(self):
        assert is_fully_indecomposable_support(np.ones((1, 1)), 1e-12)
        assert not is_fully_indecomposable_support(np.zeros((1, 1)), 1e-12)
        assert not is_fully_indecomposable_support(np.zeros((3, 3)), 1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_definition_on_birkhoff_mixtures(self, n):
        # Fully indecomposable: |N(S)| > |S| for every proper nonempty row set S.
        rng = make_rng(400 + n)
        outcomes = set()
        for _ in range(40):
            count = int(rng.integers(1, n + 1))
            weights = rng.random(count) + 0.1
            m = sum(w * np.eye(n)[rng.permutation(n)] for w in weights / weights.sum())
            support = m > 1e-12
            expected = all(
                support[list(rows)].any(axis=0).sum() > len(rows)
                for k in range(1, n)
                for rows in itertools.combinations(range(n), k)
            )
            assert is_fully_indecomposable_support(m, 1e-12) == expected
            outcomes.add(expected)
        assert outcomes == ({True} if n == 1 else {True, False})


# ---------------------------------------------------------------------------
# the stacked subset scan against one subset at a time

_RANK_TESTS = (operator.le, operator.lt, operator.eq)


def _reference_first_subset(mats, rank_test, tol=DEFAULT_TOL):
    """One ``rank_psd`` call per subset, in ascending cardinality and canonical order."""
    n = len(mats)
    for k in range(1, n):
        for subset in itertools.combinations(range(n), k):
            if rank_test(rank_psd(mats[list(subset)].sum(0), tol), k):
                return subset
    return None


def _gram(n, r, rng):
    g = random_complex_gaussian(n, rng)[:, :r]
    return g @ g.conj().T


@st.composite
def rank_deficient_stacks(draw):
    """PSD stacks (n <= 6) with drawn slot ranks, one subset of slots confined
    to a subspace of about its own size, and repeated slots."""
    n = draw(st.integers(2, 6))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = draw(st.lists(st.integers(0, n).map(lambda r: n - r), min_size=n, max_size=n))
    mats = [_gram(n, r, rng) for r in ranks]
    k = draw(st.integers(1, n - 1))
    dim = draw(st.integers(max(0, k - 1), min(n, k + 1)))
    q = np.linalg.qr(random_complex_gaussian(n, rng))[0][:, :dim]
    for i in draw(st.permutations(range(n)))[:k]:
        mats[i] = q @ _gram(dim, n, rng) @ q.conj().T
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
        mats[j] = mats[i]
    return MatrixTuple(mats).matrices


@settings(max_examples=150, deadline=None)
@given(rank_deficient_stacks())
def test_stacked_scan_matches_one_subset_at_a_time(mats):
    for rank_test in _RANK_TESTS:
        assert _first_subset(mats, rank_test, DEFAULT_TOL) == _reference_first_subset(
            mats, rank_test
        )


@st.composite
def block_ds_tuples(draw):
    """A doubly stochastic tuple of 1 to 3 blocks (n <= 6): random DS blocks or
    J_k blocks (k repeated slots I/k), with its slots permuted and conjugated by
    a unitary."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6))
    seed = draw(st.integers(0, 2**20))
    n = sum(sizes)
    mats, lo = [], 0
    for j, k in enumerate(sizes):
        block = [np.eye(k) / k] * k if draw(st.booleans()) else random_ds_tuple(k, seed + j).matrices
        for b in block:
            m = np.zeros((n, n), dtype=np.complex128)
            m[lo : lo + k, lo : lo + k] = b
            mats.append(m)
        lo += k
    u = np.linalg.qr(random_complex_gaussian(n, make_rng(seed)))[0]
    return MatrixTuple([u @ mats[i] @ u.conj().T for i in draw(st.permutations(range(n)))])


def _decompose_outcome(t):
    try:
        res = decompose(t)
    except MixdiscError as exc:
        return type(exc).__name__
    return [(labels, basis) for labels, basis, _ in res.parts]


@settings(max_examples=60, deadline=None)
@given(block_ds_tuples())
def test_decompose_matches_one_subset_at_a_time(t):
    got = _decompose_outcome(t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_first_subset", _reference_first_subset)
        want = _decompose_outcome(t)
    if isinstance(want, str):
        assert got == want
        return
    assert [labels for labels, _ in got] == [labels for labels, _ in want]
    assert sorted(i for labels, _ in got for i in labels) == list(range(t.n))
    for (_, a), (_, b) in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_witness_past_the_first_chunk_of_its_cardinality():
    # n = 14: slots 10..13 live in one 4-dimensional subspace, the others have
    # full rank.  The only witness of size <= 4 is (10, 11, 12, 13), the last
    # 4-subset in canonical order, which the scan reaches in a later chunk.
    n, k = 14, 4
    rng = make_rng(14)
    q = np.linalg.qr(random_complex_gaussian(n, rng))[0][:, :k]
    mats = [_gram(n, n, rng) for _ in range(n - k)]
    mats += [q @ _gram(k, k, rng) @ q.conj().T for _ in range(k)]
    t = MatrixTuple(mats)
    witness = tuple(range(n - k, n))
    rows = structure._SCAN_CHUNK // (k * n * n)
    assert list(itertools.combinations(range(n), k)).index(witness) >= rows
    assert is_indecomposable(t) == (False, witness)
    assert _first_subset(t.matrices, operator.eq, DEFAULT_TOL) == witness
    assert _reference_first_subset(t.matrices, operator.le) == witness
