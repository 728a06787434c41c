"""Working memory of the centered kernel: byte-sized chunks, exact sums.

The kernel sizes its chunks so that one tuple's combinations take at most
``_CHUNK_BYTES`` (2048 classes at most, so that a permanent's chunk stays in
a core's cache), and sums the terms chunk by chunk, correctly rounded.  The
traced peaks of D and Q where the classes span many chunks stay within a
few chunk buffers, and those of permanents and the Alexandrov-Fenchel
experiment within 1.5 MiB; D and permanents
do not depend on the chunk size wherever the combinations themselves do not
(BLAS may round a row of a product differently with the number of rows in
it, so the inputs here are dyadic, which makes every combination exact); Q
moves only in its last bits; and the chunk-by-chunk sums are ``math.fsum``
of all the terms in one list.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixdisc.discriminant as disc
from mixdisc.core import make_rng, random_complex_gaussian
from mixdisc.discriminant import (
    _CHUNK_BYTES,
    MatrixTuple,
    _centered_sum,
    _chunk_classes,
    _eps_combinations,
    _exact_parts,
    _exact_sums,
    eval_polarized,
    gradient,
    permanent,
)
from mixdisc.genaf import af_lower_bound_experiment

# Before chunks were sized by bytes these peaks were 27-36 MB (D) and
# 62-115 MB (Q); they are now 1.7-2.3 and 5.6-7.3 MB.  A chunk of D holds its combinations and determinants, one of Q its
# combinations, adjugates and the inverses' workspace.
_D_BUDGET = 3 * _CHUNK_BYTES
_Q_BUDGET = 6 * _CHUNK_BYTES


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wishart_tuple(n, seed):
    rng = make_rng(seed)
    mats = []
    for _ in range(n):
        g = random_complex_gaussian(n, rng)
        mats.append(g @ g.conj().T / n)
    return MatrixTuple(mats)


@pytest.fixture
def budget(monkeypatch):
    """Sets ``_CHUNK_BYTES`` for one test.  The class tables are cached by
    the groups they cover, not by the budget, so none goes stale."""

    def set_bytes(value):
        monkeypatch.setattr(disc, "_CHUNK_BYTES", value)

    return set_bytes


# ---------------------------------------------------------------------------
# traced peaks


@pytest.mark.parametrize("n", [14, 16])
def test_d_and_q_peaks_stay_within_a_few_chunks(n):
    t = _wishart_tuple(n, 900 + n)
    assert _chunk_classes(16 * n * n) < 2 ** (n - 1)  # many chunks
    assert _traced_peak(lambda: eval_polarized(MatrixTuple(t.matrices))) <= _D_BUDGET
    assert _traced_peak(lambda: gradient(t)) <= _Q_BUDGET


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_permanent_peaks_stay_within_one_and_a_half_mib(kind, n):
    # Before a class counted 1 KiB these read 2.5-4.0 MB; the class tables
    # are cached by a first call, so the peak is the chunks' working set.
    rng = make_rng(920 + n)
    c = rng.standard_normal((n, n))
    if kind == "complex":
        c = c + 1j * rng.standard_normal((n, n))
    assert _chunk_classes(c.itemsize * n) < 2 ** (n - 1)  # many chunks
    permanent(c)
    assert _traced_peak(lambda: permanent(c)) <= 1.5 * 2**20


def test_af16_peak_stays_within_one_and_a_quarter_mib():
    # Three real n = 16 permanents, with their class tables built in the
    # traced call: 3.4 MB when a chunk held 8192 classes.
    disc._class_table.cache_clear()
    assert _traced_peak(lambda: af_lower_bound_experiment(16)) <= 1.25 * 2**20


def test_chunks_fill_the_byte_budget_up_to_2048_classes():
    # Complex n = 16 slots: 512 classes of 4 KiB; a permanent's rows are
    # narrower than the 1 KiB a class counts at least.
    assert _chunk_classes(16 * 16 * 16) == 512
    assert _chunk_classes(16 * 20) == _chunk_classes(8 * 20) == _chunk_classes(8) == 2048
    n = 16
    rows = _wishart_tuple(n, 916).matrices.reshape(1, n, n * n)
    sizes = [len(sign) for _, sign, _ in _eps_combinations(rows)]
    assert sizes == [512] * 64


@pytest.mark.parametrize("n", range(8, 21))
def test_determinant_chunks_are_the_byte_budget_over_the_slot_bytes(n):
    # Complex slots of n >= 8 take 1 KiB or more, so the floor leaves their
    # chunks, and the bits of D and Q, as the byte budget sets them.
    assert _chunk_classes(16 * n * n) == _CHUNK_BYTES // (16 * n * n)


# ---------------------------------------------------------------------------
# values under two budgets


def _dyadic(shape, rng):
    """Entries in (-4, 4) on a grid of 2^-8: every sum of a few hundred of
    them with small integer coefficients is exact."""
    return rng.integers(-1024, 1024, shape) / 256.0


def _dyadic_tuple(n, seed):
    rng = make_rng(seed)
    a = _dyadic((n, n, n), rng) + 1j * _dyadic((n, n, n), rng)
    return MatrixTuple(a + a.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("n", [13, 15])
def test_d_and_permanents_keep_their_bits_under_another_budget(budget, n):
    t = _dyadic_tuple(n, 930 + n)
    rng = make_rng(940 + n)
    real, cplx = _dyadic((n, n), rng), _dyadic((n, n), rng) + 1j * _dyadic((n, n), rng)

    def values():
        d = eval_polarized(MatrixTuple(t.matrices))
        z = permanent(cplx)
        return [d.hex(), gradient(t).value.hex(), permanent(real).hex(), z.real.hex(), z.imag.hex()]

    before = values()
    budget(1 << 15)  # 4096-byte combination buffers: 16 classes per chunk here
    assert _chunk_classes(16 * n * n) < 64
    assert values() == before


def test_q_moves_only_in_its_last_bits_under_another_budget(budget):
    n = 14
    t = _wishart_tuple(n, 950)
    q = gradient(t).Q
    budget(1 << 17)
    q_small = gradient(MatrixTuple(t.matrices)).Q
    assert np.abs(q_small - q).max() <= 64 * 2.0**-52 * np.abs(q).max()


# ---------------------------------------------------------------------------
# the chunk-by-chunk sums


def test_multi_chunk_sum_is_the_fsum_of_the_concatenated_terms():
    n = 13
    t = _wishart_tuple(n, 960)
    rows = t.matrices.reshape(1, n, n * n)
    terms = [
        sign * np.linalg.det(comb[0].reshape(-1, n, n))
        for _, sign, comb in _eps_combinations(rows)
    ]
    assert len(terms) > 1
    terms = np.concatenate(terms)
    (value,), _ = _centered_sum(rows, lambda s: np.linalg.det(s.reshape(-1, n, n)))
    scale = 2.0 ** (1 - n)
    assert value.real == scale * math.fsum(terms.real)
    assert value.imag == scale * math.fsum(terms.imag)


@st.composite
def term_chunks(draw):
    """Chunks of terms of 1-3 rows whose exponents span up to 2^1800, with
    exact cancellations, zeros and subnormals."""
    rows = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    spread = draw(st.sampled_from([0, 10, 60, 300, 900]))
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(st.integers(1, 40))
        x = rng.standard_normal((rows, c)) * np.exp2(rng.integers(-spread, spread + 1, (rows, c)))
        if draw(st.booleans()):
            x[:, ::3] = 0.0
        if draw(st.booleans()):
            x[:, 0] = 5e-324
        chunks.append(x)
    if draw(st.booleans()):
        # Each term and its negation, in different chunks.
        chunks.append(-np.concatenate(chunks, axis=1)[:, ::-1])
    return chunks


@settings(max_examples=300, deadline=None)
@given(term_chunks())
def test_exact_sums_are_the_fsum_of_all_terms(chunks):
    whole = np.concatenate(chunks, axis=1)
    sums, magnitudes = _exact_sums(iter(chunks))
    assert [s.hex() for s in sums] == [math.fsum(row).hex() for row in whole.tolist()]
    # Complex terms: the real parts' sums, then the imaginary parts'.
    flipped = [c[:, ::-1] for c in chunks]
    sums, _ = _exact_sums(c + 1j * f for c, f in zip(chunks, flipped))
    expected = whole.tolist() + np.concatenate(flipped, axis=1).tolist()
    assert sums == [math.fsum(row) for row in expected]
    assert np.allclose(magnitudes, np.abs(whole).sum(axis=1), rtol=1e-13)


@settings(max_examples=300, deadline=None)
@given(term_chunks())
def test_exact_parts_sum_exactly_to_their_rows(chunks):
    x = chunks[0]
    parts = _exact_parts(x.copy())
    assert parts.shape[0] == len(x) and parts.shape[1] <= 60
    for row, part in zip(x.tolist(), parts.tolist()):
        # Their sum is exact: with the row's negation it cancels to zero.
        assert math.fsum(part + [-v for v in row]) == 0.0


def test_exact_sums_of_terms_that_are_not_finite_or_near_overflow():
    big = 2.0**1022  # within 2^k of overflow: that chunk is kept whole
    assert _exact_parts(np.array([[big, big]])).shape == (1, 2)
    assert _exact_sums(iter([np.array([[big, big]]), np.array([[-big, 1.0]])]))[0] == [big + 1.0]
    assert _exact_sums(iter([np.array([[np.inf, 1.0]]), np.array([[2.0]])]))[0] == [np.inf]
    assert math.isnan(_exact_sums(iter([np.array([[np.nan]]), np.array([[2.0]])]))[0][0])
    with pytest.raises(ValueError):
        _exact_sums(iter([np.array([[np.inf]]), np.array([[-np.inf]])]))
