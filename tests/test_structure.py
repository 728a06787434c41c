import itertools
import json
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdisc import structure
from mixdisc.capacity import capacity, capacity_via_scaling, scale_to_doubly_stochastic
from mixdisc.cli import main, tuple_to_doc
from mixdisc.core import (
    DEFAULT_TOL,
    NotDoublyStochastic,
    NotIndecomposable,
    NumericalInconsistency,
    PreconditionViolated,
    iter_seeds,
    make_rng,
    random_complex_gaussian,
    random_psd,
    rank_psd,
)
from mixdisc.discriminant import (
    MatrixTuple,
    check_doubly_stochastic,
    diagonal_tuple,
    eval_polarized,
    permanent,
)
from mixdisc.extremal import random_ds_tuple
from mixdisc.structure import (
    _generic_ranks,
    _rank_tests,
    decompose,
    is_indecomposable,
    positivity_rank_test,
)

from helpers import NotUnitary, is_fully_indecomposable_support, m_matrix


def block_diag_ds(seed):
    """A decomposable doubly stochastic 4-tuple built from two 2x2 blocks."""
    a = random_ds_tuple(2, seed)
    b = random_ds_tuple(2, seed + 1)
    z = np.zeros((2, 2))
    mats = [np.block([[m, z], [z, z]]) for m in a.matrices]
    mats += [np.block([[z, z], [z, m]]) for m in b.matrices]
    return MatrixTuple(mats), a, b


def _count_eigh(monkeypatch):
    """The shapes of the stacks ``structure._eigh`` is called on, in order."""
    shapes = []
    real = structure._eigh
    monkeypatch.setattr(
        structure, "_eigh", lambda a, **kw: shapes.append(np.shape(a)) or real(a, **kw)
    )
    return shapes


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
        assert len(res.parts) == 1 and res.parts[0][2] is t
        assert res.product_check == 0.0

    @pytest.mark.parametrize("n", [1, 20])
    def test_jn_is_one_part(self, n):
        # J_20 sits at eval_polarized's gate, past the subset scan's n <= 16.
        t = MatrixTuple(np.broadcast_to(np.eye(n) / n, (n, n, n)))
        res = decompose(t)
        assert [labels for labels, _, _ in res.parts] == [tuple(range(n))]
        assert res.product_check == 0.0

    def test_three_rotated_j_blocks_past_the_scan_gate(self):
        # n = 18: three J_6 blocks, permuted and rotated; D = (6!/6^6)^3.
        n, k = 18, 6
        mats = np.zeros((n, n, n))
        for b in range(3):
            mats[b * k : (b + 1) * k, range(b * k, (b + 1) * k), range(b * k, (b + 1) * k)] = 1.0 / k
        u = np.linalg.qr(random_complex_gaussian(n, make_rng(18)))[0]
        perm = make_rng(19).permutation(n)
        t = MatrixTuple(u @ mats[perm] @ u.conj().T)
        res = decompose(t)
        d = eval_polarized(t)
        assert [labels for labels, _, _ in res.parts] == sorted(
            tuple(sorted(np.flatnonzero(perm // k == b).tolist())) for b in range(3)
        )
        assert all(sub.n == k for _, _, sub in res.parts)
        assert d == pytest.approx((math.factorial(k) / k**k) ** 3, rel=1e-10)
        assert res.product_check <= 1e-8 * (1.0 + d)

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

    def test_a_failed_product_identity_raises(self, monkeypatch):
        # Every D 1% high: D(t) = 1.01 D, the product of two parts 1.0201 D.
        exact = structure.eval_polarized
        monkeypatch.setattr(structure, "eval_polarized", lambda t: exact(t) * 1.01)
        with pytest.raises(NumericalInconsistency, match="^product identity off by "):
            decompose(block_diag_ds(11)[0])

    def test_each_peel_round_takes_two_eigensolves(self, monkeypatch):
        # One round: the slots of the remainder, then the witness's sum.  The
        # last remainder's two slots have full rank and need no solve.
        shapes = _count_eigh(monkeypatch)
        t, _, _ = block_diag_ds(11)
        assert [labels for labels, _, _ in decompose(t).parts] == [(0, 1), (2, 3)]
        assert shapes == [(4, 4, 4), (4, 4)]

    def test_a_slot_outside_the_psd_rule_raises_as_in_the_rank_tests(self, tmp_path, capsys):
        # Within ds_tol of PSD, but below -psd_tol times the largest entry:
        # the doubly stochastic verdict reads the PSD rule the rank tests do.
        e = -5e-9
        t = MatrixTuple([np.diag(np.roll([1.0 - e, e, 0.0], i)) for i in range(3)])
        report = check_doubly_stochastic(t)
        assert not report.is_doubly_stochastic
        assert report.psd_violation == 5e-9
        with pytest.raises(NotDoublyStochastic):
            decompose(t)
        for route in (is_indecomposable, scale_to_doubly_stochastic):
            with pytest.raises(PreconditionViolated):
                route(t)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tuple_to_doc(t)))
        assert main(["check-ds", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["is_doubly_stochastic"] is False
        assert main(["decompose", str(path)]) == 2

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
# the generic-vector rank tests against one subset at a time


def _reference_first_subset(mats, rank_test, tol=DEFAULT_TOL):
    """One ``rank_psd`` call per subset, in ascending cardinality and canonical
    order; the single slots too.  The first subset found is minimal."""
    n = len(mats)
    for k in range(1, n):
        for subset in itertools.combinations(range(n), k):
            if rank_test(rank_psd(mats[list(subset)].sum(0), tol), k):
                return subset
    return None


def _assert_matches_the_oracle(t):
    """Both verdicts are the oracle's (``operator.le`` for indecomposability;
    ``operator.lt`` and the full sum's rank for the weak test), and every
    witness is a proper, nonempty subset certified by ``rank_psd``: rank <= |S|
    for a decomposable verdict, < |S| for a violation unless the witness is
    all slots but the last (a null vector supported on every slot).  Returns
    (indecomposable, weak rank condition)."""
    n, mats = t.n, t.matrices
    ok, witness = is_indecomposable(t)
    weak = _reference_first_subset(mats, operator.lt) is None and rank_psd(mats.sum(0)) >= n
    assert ok is (_reference_first_subset(mats, operator.le) is None)
    assert positivity_rank_test(t) is weak
    if not ok:
        assert 0 < len(witness) < n
        assert rank_psd(mats[list(witness)].sum(0)) <= len(witness)
    if not weak:
        found = _generic_ranks(mats, rank_psd(mats), DEFAULT_TOL)[1]
        assert 0 < len(found) < n
        rank = rank_psd(mats[list(found)].sum(0))
        assert rank <= len(found) if found == tuple(range(n - 1)) else rank < len(found)
    return ok, weak


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
    return MatrixTuple(mats)


@settings(max_examples=150, deadline=None)
@given(rank_deficient_stacks())
def test_generic_vectors_match_one_subset_at_a_time(t):
    _assert_matches_the_oracle(t)


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


def _reference_split(mats, labels=None, basis=None, parts=None):
    """The recursive decomposition by subset scan: peel off the first minimal
    subset whose sum has rank equal to its size, restrict each side to its
    image, recurse.  Returns the (labels, basis) of each indecomposable part."""
    n = len(mats)
    labels = list(range(n)) if labels is None else labels
    basis = np.eye(n, dtype=np.complex128) if basis is None else basis
    parts = [] if parts is None else parts
    witness = _reference_first_subset(mats, operator.eq)
    if witness is None:
        parts.append((tuple(labels), basis))
        return parts
    inside = list(witness)
    v = np.linalg.eigh(mats[inside].sum(0))[1][:, ::-1]
    rest = [i for i in range(n) if i not in witness]
    for idx, u in ((inside, v[:, : len(inside)]), (rest, v[:, len(inside) :])):
        _reference_split(u.conj().T @ mats[idx] @ u, [labels[i] for i in idx], basis @ u, parts)
    return parts


def _assert_matches_the_recursive_split(t):
    got = [(labels, basis) for labels, basis, _ in decompose(t).parts]
    want = sorted(_reference_split(t.matrices), key=lambda part: part[0])
    # Parts come in order of their smallest slot and partition the slots.
    assert [labels for labels, _ in got] == [labels for labels, _ in want]
    assert sorted(i for labels, _ in got for i in labels) == list(range(t.n))
    # Each part spans the oracle's subspace: its basis is the oracle's up to a
    # unitary within the part.
    for (_, a), (_, b) in zip(got, want):
        np.testing.assert_allclose(a @ a.conj().T, b @ b.conj().T, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(block_ds_tuples())
def test_decompose_matches_one_subset_at_a_time(t):
    # A block sampled within ds_tol can leave the whole tuple just outside it.
    if not check_doubly_stochastic(t).is_doubly_stochastic:
        with pytest.raises(NotDoublyStochastic):
            decompose(t)
        return
    _assert_matches_the_recursive_split(t)


def _near_decomposable_ds(n, k, delta, seed):
    """Blocks of k and n - k slots on complementary coordinates, each slot
    coupled across the blocks by delta times a trace-one Wishart matrix, then
    scaled to doubly stochastic (at a rank_tol far below delta, so the scaling
    precondition holds) and conjugated by a unitary."""
    rng = make_rng(seed)
    mats = np.zeros((n, n, n), dtype=np.complex128)
    mats[:k, :k, :k] = random_ds_tuple(k, seed).matrices
    mats[k:, k:, k:] = random_ds_tuple(n - k, seed + 1).matrices
    for m in mats:
        w = _gram(n, n, rng)
        m += delta * w / np.trace(w).real
    fine = replace(DEFAULT_TOL, rank_tol=1e-14)
    scaled = scale_to_doubly_stochastic(MatrixTuple(mats), fine).scaled.matrices
    u = np.linalg.qr(random_complex_gaussian(n, rng))[0]
    return MatrixTuple(u @ scaled @ u.conj().T)


def _raw_sums_split_more(n, delta):
    """Where the oracle's raw sums read a tight set that the slot ranges do
    not.  At delta <= 1e-9 the leak eigenvalues of a block's raw sum fall
    below rank_tol, so the oracle cuts the blocks apart.  The slot ranges
    read each slot's eigenvectors, which the coupling tilts by about delta,
    far above the support floor of X, so for n >= 4 no proper support is
    tight: the tuple, whose coupling is nonzero, is one part and scales.  At
    n = 3 slot 0 has rank one, and the range of a rank-one slot is exact."""
    return n >= 4 and delta <= 1e-9


def _assert_decomposes_into(t, parts, n, delta):
    """decompose gives ``parts`` parts; they are the oracle's where the two
    readings of a tight set agree, and fewer than the oracle's elsewhere."""
    assert len(decompose(t).parts) == parts
    if _raw_sums_split_more(n, delta):
        assert len(_reference_split(t.matrices)) > parts
    else:
        _assert_matches_the_recursive_split(t)


@pytest.mark.parametrize(
    "n, delta, parts",
    [(n, 1e-10, 2 if n == 3 else 1) for n in range(3, 7)]
    + [(n, delta, 1) for n in range(3, 7) for delta in (1e-8, 1e-6, 1e-4)],
)
def test_decompose_matches_the_recursive_split_near_decomposable(n, delta, parts):
    for seed in range(3):
        t = _near_decomposable_ds(n, n // 2, delta, 1000 * n + seed)
        _assert_decomposes_into(t, parts, n, delta)


# The largest cross entry of the trace Gram matrix is about delta / 2, so at
# these delta it lies within a factor of two of rank_tol = 1e-9, and so does
# the leak eigenvalue of a block's sum.  At n = 3 the tuple is cut exactly
# where slot 0 has rank one at rank_tol, since {0} is then tight: at
# delta = 2e-9 for seeds 0 and 1, and at 3e-9 for seed 1.  The part counts
# are for seeds 0, 1 and 2.
@pytest.mark.parametrize(
    "delta, parts",
    [
        (1e-9, {3: (2, 2, 2), 4: (1, 1, 1), 5: (1, 1, 1), 6: (1, 1, 1)}),
        (2e-9, {3: (2, 2, 1), 4: (1, 1, 1), 5: (1, 1, 1), 6: (1, 1, 1)}),
        (3e-9, {3: (1, 2, 1), 4: (1, 1, 1), 5: (1, 1, 1), 6: (1, 1, 1)}),
    ],
    ids=["1e-9", "2e-9", "3e-9"],
)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decompose_matches_the_recursive_split_around_rank_tol(n, delta, parts):
    for seed in range(3):
        t = _near_decomposable_ds(n, n // 2, delta, 1000 * n + seed)
        _assert_decomposes_into(t, parts[n][seed], n, delta)


def _assert_one_reading_of_a_tight_set(t):
    """One part from decompose, an indecomposable verdict and a scaling that
    does not raise NotIndecomposable go together."""
    one_part = len(decompose(t).parts) == 1
    try:
        scale_to_doubly_stochastic(t)
        scales = True
    except NotIndecomposable:
        scales = False
    assert one_part is is_indecomposable(t)[0] is scales


@pytest.mark.parametrize("delta", [1e-10, 1e-9, 2e-9, 3e-9, 1e-8])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_structure_routes_agree_near_decomposable(n, delta):
    for seed in range(3):
        _assert_one_reading_of_a_tight_set(_near_decomposable_ds(n, n // 2, delta, 1000 * n + seed))


@settings(max_examples=60, deadline=None)
@given(block_ds_tuples())
def test_structure_routes_agree_on_block_tuples(t):
    if check_doubly_stochastic(t).is_doubly_stochastic:
        _assert_one_reading_of_a_tight_set(t)


def test_witness_past_the_first_chunk_of_its_cardinality():
    # n = 14: slots 10..13 live in one 4-dimensional subspace, the others have
    # full rank.  The only witness of size <= 4 is (10, 11, 12, 13), the last
    # 4-subset in canonical order, and the support of the columns 10..13.
    n, k = 14, 4
    rng = make_rng(14)
    q = np.linalg.qr(random_complex_gaussian(n, rng))[0][:, :k]
    mats = [_gram(n, n, rng) for _ in range(n - k)]
    mats += [q @ _gram(k, k, rng) @ q.conj().T for _ in range(k)]
    t = MatrixTuple(mats)
    witness = tuple(range(n - k, n))
    assert is_indecomposable(t) == (False, witness)
    assert _reference_first_subset(t.matrices, operator.le) == witness


def test_a_deficient_full_sum_gives_all_slots_but_the_last():
    # Every proper subset passes the weak test, so the null vector of U is
    # supported on every slot, and the witness is all slots but the last.
    for diagonals in ([[1.0, 0.0]] * 2, [[1.0, 1.0, 0.0]] * 3):
        t = MatrixTuple([np.diag(d) for d in diagonals])
        assert is_indecomposable(t) == (False, tuple(range(t.n - 1)))


def test_one_slot_is_indecomposable():
    for slot, weak in ((np.ones((1, 1)), True), (np.zeros((1, 1)), False)):
        t = MatrixTuple([slot])
        assert is_indecomposable(t) == (True, None)
        assert positivity_rank_test(t) is weak


@pytest.mark.parametrize("n", [2, 3])
def test_zero_slots_violate_the_weak_test(n):
    # U is the zero matrix: no singular value is above the floor.
    t = MatrixTuple(np.zeros((n, n, n)))
    ok, witness = is_indecomposable(t)
    assert not ok and len(witness) == 1
    assert not positivity_rank_test(t)


def test_a_planted_violation_past_sixteen_slots():
    # n = 40 rank-2 slots; slots 5..14 share a 9-dimensional subspace, so
    # their sum has rank 9 < 10.  The verdicts need no 2^n work and do not
    # change between calls or on a fresh copy of the tuple.
    n = 40
    rng = make_rng(40)
    q = np.linalg.qr(random_complex_gaussian(n, rng))[0][:, :9]
    mats = [_gram(n, 2, rng) for _ in range(n)]
    for i in range(5, 15):
        mats[i] = q @ _gram(9, 2, rng) @ q.conj().T
    t = MatrixTuple(mats)
    ok, witness = is_indecomposable(t)
    assert not ok and 0 < len(witness) < n
    assert rank_psd(t.matrices[list(witness)].sum(0)) < len(witness)
    assert not positivity_rank_test(t)
    assert is_indecomposable(t) == (ok, witness)
    assert is_indecomposable(MatrixTuple(t.matrices.copy())) == (ok, witness)


@pytest.mark.parametrize("seed", range(3))
def test_scaling_past_sixteen_slots(seed):
    n = 24
    assert check_doubly_stochastic(random_ds_tuple(n, seed)).is_doubly_stochastic
    t = MatrixTuple([random_psd(n, s) for s in itertools.islice(iter_seeds(seed), n)])
    assert capacity_via_scaling(t) == pytest.approx(capacity(t).value, rel=1e-10)


# ---------------------------------------------------------------------------
# the full-rank early return against the oracle


def _scan_families(n, seed):
    """Wishart slots, rank-one + eps I slots (eps above and below rank_tol),
    a block-diagonal decomposable DS tuple with its slots permuted and
    conjugated by a unitary, and two 0/1 diagonal tuples."""
    rng = make_rng(seed)
    yield MatrixTuple([random_psd(n, s) for s in itertools.islice(iter_seeds(seed), n)])
    for eps in (1e-6, 1e-12):
        yield MatrixTuple([_gram(n, 1, rng) + eps * np.eye(n) for _ in range(n)])
    k = n // 2
    a, b = random_ds_tuple(k, seed), random_ds_tuple(n - k, seed + 1)
    mats = [np.zeros((n, n), dtype=np.complex128) for _ in range(n)]
    for i in range(k):
        mats[i][:k, :k] = a.matrices[i]
    for i in range(n - k):
        mats[k + i][k:, k:] = b.matrices[i]
    u = np.linalg.qr(random_complex_gaussian(n, rng))[0]
    yield MatrixTuple([u @ mats[i] @ u.conj().T for i in rng.permutation(n)])
    for density in (0.3, 0.6):
        yield diagonal_tuple((rng.random((n, n)) < density).astype(float))


class TestFullRankStop:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_witness_matches_the_full_scan(self, n):
        # The verdicts are those of the scan of every subset, and the
        # witnesses are certified; they need not be its minimal subsets.
        outcomes = set()
        for seed in range(3):
            for t in _scan_families(n, 100 * n + seed):
                outcomes.add(_assert_matches_the_oracle(t))
        assert {ok for ok, _ in outcomes} == {True, False}
        assert {weak for _, weak in outcomes} == {True, False}

    def test_full_rank_slots_need_no_subset_sum(self, monkeypatch):
        # Full-rank slots stop the scan at cardinality 1, whose ranks come
        # from the eigenvalues of the PSD check: the scan solves nothing.
        calls = []
        monkeypatch.setattr(structure, "_eigh", lambda *a, **k: calls.append(a))
        t = MatrixTuple([random_psd(6, s) for s in itertools.islice(iter_seeds(5), 6)])
        assert is_indecomposable(t) == (True, None)
        assert positivity_rank_test(t)
        assert calls == []

    def test_a_decomposable_verdict_takes_one_eigensolve(self, monkeypatch):
        # The generic vectors and the witness certification read one batched
        # eigh of the slots.
        shapes = _count_eigh(monkeypatch)
        t = MatrixTuple([np.diag(d) for d in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0])])
        assert is_indecomposable(t) == (False, (0,))
        assert shapes == [(3, 3, 3)]

    def test_non_psd_tuple_raises_before_the_scan(self):
        # One slot with a negative eigenvalue: beside full-rank slots (the
        # early return) and beside a rank-one slot (a witness of one slot).
        bad = np.diag([1.0, 1.0, -1e-3])
        for other in (np.eye(3), np.diag([1.0, 0.0, 0.0])):
            t = MatrixTuple([bad, other, np.eye(3)])
            (verdict,) = _rank_tests(t.matrices[None], np.linalg.eigvalsh(t.matrices)[None], DEFAULT_TOL)
            assert isinstance(verdict, PreconditionViolated)
            with pytest.raises(PreconditionViolated):
                is_indecomposable(t)
            with pytest.raises(PreconditionViolated):
                positivity_rank_test(t)

    def test_an_uncertified_witness_is_never_returned(self, monkeypatch):
        # A support that is not tight, as a draw that is not generic would
        # give, raises instead of being reported as a decomposition.
        # A zero draw is as far from generic as a draw gets: U = 0, whose
        # null vector's support is not tight on this indecomposable tuple
        # (slot 0 has rank 2, so the tuple is read by the generic vectors).
        monkeypatch.setattr(structure, "random_complex_gaussian", lambda shape, rng: np.zeros(shape, complex))
        with pytest.raises(NumericalInconsistency, match="not tight"):
            is_indecomposable(MatrixTuple([np.diag([1.0, 1.0, 0.0]), np.eye(3), np.eye(3)]))

    def test_the_witness_is_certified_on_the_slot_ranges(self, tmp_path, capsys):
        # Each slot's 9e-10 eigenvalue is below rank_tol times its largest,
        # so slots 0 and 1 both have range span(e1, e2) and (0, 1) is tight;
        # their raw sum adds those eigenvalues to 1.8e-9 and has rank 3.
        small = [0.0, 9e-10]
        slots = [np.diag([1.0, 1e-3] + small), np.diag([1e-3, 1.0] + small)]
        t = MatrixTuple(slots + [np.eye(4)] * 2)
        assert rank_psd(t.matrices[:2].sum(0)) == 3
        assert is_indecomposable(t) == (False, (0, 1))
        with pytest.raises(NotIndecomposable, match=r"\(0, 1\)"):
            scale_to_doubly_stochastic(t)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tuple_to_doc(t)))
        assert main(["scale", str(path)]) == 2
        assert capsys.readouterr().err == "error: tuple decomposes; witness subset (0, 1)\n"
