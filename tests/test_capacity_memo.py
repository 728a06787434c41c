"""Results memoized on the immutable MatrixTuple.

A tuple keeps its mixed discriminant D (filled by ``eval_polarized`` alone),
its slot eigenvalues, its Newton ``CapacityResult``, which reads no
tolerance, and its doubly stochastic ``ScalingResult`` by Tolerances.
Every value read from the memo must be the bits a fresh tuple of the same
slots gives.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from mixdisc.capacity import (
    capacity,
    capacity_bound_report,
    capacity_via_scaling,
    scale_to_doubly_stochastic,
)
from mixdisc.core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    MixdiscError,
    NonConvergence,
    NotIndecomposable,
    PreconditionViolated,
    SingularPencil,
    Tolerances,
    _wishart,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import (
    MatrixTuple,
    check_doubly_stochastic,
    eval_polarized,
    gradient,
)
from mixdisc.extremal import random_ds_tuple
from mixdisc.genaf import check_theorem52, classical_af_combination, expand_tuple
from mixdisc.structure import decompose, is_indecomposable

from helpers import diagonal_tuple, m_alpha

_CAP = sys.modules["mixdisc.capacity"]
_DISC = sys.modules["mixdisc.discriminant"]


def _wishart_tuple(n, seed):
    rng = make_rng(seed)
    g = [random_complex_gaussian(n, rng) for _ in range(n)]
    return MatrixTuple([x @ x.conj().T for x in g])


def _near_boundary_tuple(n, seed):
    """n - 1 Wishart slots and one rank-one + 1e-6 I slot."""
    rng = make_rng(seed)
    mats = [x @ x.conj().T for x in (random_complex_gaussian(n, rng) for _ in range(n - 1))]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return MatrixTuple(mats + [np.outer(v, v.conj()) + 1e-6 * np.eye(n)])


def _decomposable_tuple(n):
    """Slot 0 lives on the first coordinate alone: rank(A_0) = 1 = |{0}|."""
    rng = make_rng(300 + n)
    first = np.zeros((n, n))
    first[0, 0] = 1.0
    rest = [x @ x.conj().T for x in (random_complex_gaussian(n, rng) for _ in range(n - 1))]
    return MatrixTuple([first] + rest)


def _key(value):
    """Everything a result carries, arrays by their bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, MatrixTuple):
        return _key(value.matrices)
    if isinstance(value, (tuple, list)):
        return tuple(_key(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return tuple((f, _key(getattr(value, f))) for f in value.__dataclass_fields__)
    return repr(value)


def _outcome(fn, *args, **kwargs):
    try:
        return _key(fn(*args, **kwargs))
    except MixdiscError as exc:
        return type(exc).__name__, str(exc), _key(getattr(exc, "result", None))


def _sequence(t):
    """The memoized calls an experiment makes of one tuple, in order."""
    calls = [
        (eval_polarized, ()),
        (scale_to_doubly_stochastic, ()),
        (capacity, ()),
        (capacity_bound_report, ()),
        (capacity_via_scaling, ()),
        (is_indecomposable, ()),
        (check_theorem52, (classical_af_combination(t.n),)),
        (capacity, ()),
        (eval_polarized, ()),
        (scale_to_doubly_stochastic, ()),
    ]
    return [(fn, args, _outcome(fn, t, *args)) for fn, args in calls]


_TUPLES = (
    [("wishart", n, lambda n=n: _wishart_tuple(n, 40 + n)) for n in range(2, 7)]
    + [("near-boundary", 3, lambda: _near_boundary_tuple(3, 7))]
    + [("decomposable", 4, lambda: _decomposable_tuple(4))]
)


@pytest.mark.parametrize("kind, n, make", _TUPLES, ids=[f"{k}{n}" for k, n, _ in _TUPLES])
def test_memoized_results_are_the_bits_of_a_fresh_tuple(kind, n, make):
    t = make()
    for fn, args, memo in _sequence(t):
        assert memo == _outcome(fn, MatrixTuple(t.matrices), *args), fn.__name__
    # The memo entries themselves against fresh computations.
    assert t._memo["polarized"].hex() == eval_polarized(MatrixTuple(t.matrices)).hex()
    newton = t._memo["newton"]
    fresh = _CAP._newton(MatrixTuple(t.matrices).matrices)
    assert newton.value.hex() == fresh.value.hex()
    assert newton.minimizer_x.tobytes() == fresh.minimizer_x.tobytes()
    assert (newton.stop_reason, newton.iterations) == (fresh.stop_reason, fresh.iterations)
    key = ("scaling", DEFAULT_TOL)
    assert (key in t._memo) == (kind != "decomposable")
    if key in t._memo:
        fresh = scale_to_doubly_stochastic(MatrixTuple(t.matrices))
        assert _key(t._memo[key]) == _key(fresh)


def _count(monkeypatch, name):
    calls = []
    real = getattr(_CAP, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_CAP, name, counted)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_newton_solve_per_distinct_tuple(n, monkeypatch):
    # Capacity and theorem 5.2 on one tuple solve the tuple itself (whose
    # all-ones expansion is the tuple) and the two doubled-slot expansions;
    # the two scaling calls share one scan and one loop and solve nothing.
    newton = _count(monkeypatch, "_newton")
    scans = _count(monkeypatch, "_rank_tests")
    loops = _count(monkeypatch, "_scale_vector")
    t = _wishart_tuple(n, 70 + n)
    scale_to_doubly_stochastic(t)
    assert not newton
    capacity(t)
    report = check_theorem52(t, classical_af_combination(n))
    capacity_via_scaling(t)
    assert report.holds
    solved = [mats.tobytes() for (mats,) in newton]
    assert len(solved) == 3 == len(set(solved))
    assert solved[0] == t.matrices.tobytes()
    assert len(scans) == 1 == len(loops)


def test_scaling_and_the_oracle_share_one_loop_and_never_run_newton(monkeypatch):
    # scale then capacity_via_scaling: one scan, one scaling loop, and Cap
    # read off the scaling that scale returned.
    def no_newton(*args):
        raise AssertionError("the scaling route ran Newton")

    monkeypatch.setattr(_CAP, "_newton", no_newton)
    scans = _count(monkeypatch, "_rank_tests")
    loops = _count(monkeypatch, "_scale_vector")
    for t in (_wishart_tuple(4, 31), _near_boundary_tuple(3, 7)):
        res = scale_to_doubly_stochastic(t)
        logdet = float(np.linalg.slogdet(res.transform_X)[1])
        cap = math.exp(-2.0 * logdet - float(np.sum(np.log(res.trace_scalars))))
        assert capacity_via_scaling(t) == cap
        assert scale_to_doubly_stochastic(t) is res
    assert len(scans) == 2 == len(loops)


def test_each_row_of_a_mixed_stack_gives_what_it_gives_alone():
    # A Wishart tuple (its full ranks answer the precondition at once), a
    # decomposable one, an indecomposable one of rank-2 slots (read by the
    # generic vectors) and a non-PSD one: the stack route gives each row
    # the result bytes, or the exception class and message, of
    # scale_to_doubly_stochastic on that tuple alone.
    rng = make_rng(5)
    half = [g[:, :2] for g in random_complex_gaussian((3, 3, 3), rng)]
    rank_two = MatrixTuple([g @ g.conj().T for g in half])
    not_psd = MatrixTuple([np.diag([1.0, 1.0, -0.5]), np.eye(3), np.eye(3)])
    tuples = [_wishart_tuple(3, 8), _decomposable_tuple(3), rank_two, not_psd]
    assert (np.linalg.matrix_rank(rank_two.matrices) == 2).all() and is_indecomposable(rank_two)[0]
    mats = np.array([t.matrices for t in tuples])
    stack = _CAP._scale_stack(mats, np.linalg.eigvalsh(mats), DEFAULT_TOL)
    kinds = [type(res).__name__ for res in stack]
    assert kinds == ["ScalingResult", "NotIndecomposable", "ScalingResult", "PreconditionViolated"]
    for t, res in zip(tuples, stack):
        if isinstance(res, Exception):
            row = type(res).__name__, str(res), _key(getattr(res, "result", None))
        else:
            row = _key(res)
        assert row == _outcome(scale_to_doubly_stochastic, MatrixTuple(t.matrices))


def test_expand_tuple_of_all_ones_is_the_tuple():
    t = _wishart_tuple(4, 5)
    assert expand_tuple(t, [1, 1, 1, 1]) is t
    assert expand_tuple(t, [2, 0, 1, 1]) is not t


def test_other_tolerances_recompute(monkeypatch):
    newton = _count(monkeypatch, "_newton")
    scans = _count(monkeypatch, "_rank_tests")
    loops = _count(monkeypatch, "_scale_vector")
    t = _wishart_tuple(4, 9)
    base = capacity(t)
    assert capacity(t, Tolerances()) is base  # an equal Tolerances is the same key
    tighter = replace(DEFAULT_TOL, psd_tol=1e-10)
    assert capacity(t, tighter) is base  # Newton reads no tolerance
    assert len(newton) == 1
    scaled = scale_to_doubly_stochastic(t)
    assert scale_to_doubly_stochastic(t, Tolerances()) is scaled
    assert capacity_via_scaling(t) == capacity_via_scaling(t, Tolerances())
    assert len(scans) == 1 == len(loops)
    other = scale_to_doubly_stochastic(t, replace(DEFAULT_TOL, rank_tol=1e-8))
    assert other is not scaled and _key(other) == _key(scaled)
    assert len(scans) == 2 == len(loops) and len(newton) == 1
    other = scale_to_doubly_stochastic(t, tighter)
    assert other is not scaled and _key(other) == _key(scaled)
    # A new ds_tol moves the stop, so only the rerun is asserted.
    other = scale_to_doubly_stochastic(t, replace(DEFAULT_TOL, ds_tol=1e-7))
    assert other is not scaled and other.converged
    assert len(scans) == 4 == len(loops) and len(newton) == 1


def test_one_newton_solve_at_any_tolerances(monkeypatch):
    # Newton reads no tolerance, so its one entry serves every setting: one
    # solve, one entry and one set of bits across five tolerance settings.
    newton = _count(monkeypatch, "_newton")
    t = random_ds_tuple(3, 1)
    settings = [DEFAULT_TOL] + [
        replace(DEFAULT_TOL, **{field: value})
        for field, value in [("rank_tol", 1e-8), ("ds_tol", 1e-7), ("hermitian_tol", 1e-12), ("psd_tol", 1e-10)]
    ]
    values = {_key(capacity(t, tol)) for tol in settings}
    assert len(newton) == 1 and len(values) == 1
    assert [k for k in t._memo if "newton" in str(k)] == ["newton"]
    assert _key(t._memo["newton"]) == _key(_CAP._newton(MatrixTuple(t.matrices).matrices))


def test_the_psd_check_runs_on_every_call(monkeypatch):
    # Slot 0 of a Wishart tuple with its smallest eigenvalue set to -1e-8
    # times the tuple's largest |entry|: within a loose psd_tol of PSD but
    # not within the default.  A solve at the loose tolerances is kept, yet
    # the default call still raises, before and after it.
    newton = _count(monkeypatch, "_newton")
    mats = _wishart((3, 3, 3), 0)
    w, v = np.linalg.eigh(mats[0])
    w[0] = -1e-8 * np.abs(mats).max()
    mats[0] = (v * w) @ v.conj().T
    t = MatrixTuple(mats)
    loose = replace(DEFAULT_TOL, psd_tol=1e-6)
    with pytest.raises(PreconditionViolated):
        capacity(t)
    solved = capacity(t, loose)
    assert solved.converged and solved.value > 0.0
    with pytest.raises(PreconditionViolated):
        capacity(t)
    assert capacity(t, loose) is solved
    assert len(newton) == 1


def test_memoized_minimizer_is_read_only():
    t = _wishart_tuple(3, 11)
    x = capacity(t).minimizer_x
    with pytest.raises(ValueError):
        x[0] = 1.0
    assert capacity(t).minimizer_x is x


def test_iteration_cap_raises_on_every_call_with_equal_results(monkeypatch):
    monkeypatch.setattr(_CAP, "CAPACITY_MAX_ITER", 0)
    t = _wishart_tuple(4, 13)
    results = []
    for _ in range(2):
        with pytest.raises(NonConvergence) as info:
            capacity(t)
        results.append(info.value.result)
    assert results[0].stop_reason == "max_iter"
    assert _key(results[0]) == _key(results[1])
    with pytest.raises(NonConvergence) as info:
        capacity(MatrixTuple(t.matrices))
    assert _key(info.value.result) == _key(results[0])


def test_exceptions_are_not_memoized(monkeypatch):
    newton = _count(monkeypatch, "_newton")
    loops = _count(monkeypatch, "_scale_vector")
    e1 = np.diag([1.0, 0.0, 0.0])
    t = MatrixTuple([e1, e1, np.eye(3)])  # rank(A_0 + A_1) = 1 < 2: Cap = 0
    for _ in range(2):
        with pytest.raises(SingularPencil):
            capacity(t)
        with pytest.raises(NotIndecomposable):
            scale_to_doubly_stochastic(t)
    # The slot eigenvalues of the PSD check, which raised nothing, are kept;
    # the loop is handed an empty stack each time and scales no tuple.
    assert len(newton) == 2 and list(t._memo) == ["slot_eigs"]
    assert [len(args[0]) for args in loops] == [0, 0]
    t = _wishart_tuple(4, 13)
    monkeypatch.setattr(_CAP, "SCALING_MAX_ITER", 1)
    for _ in range(2):
        with pytest.raises(NonConvergence):
            scale_to_doubly_stochastic(t)
    assert [len(args[0]) for args in loops] == [0, 0, 1, 1] and list(t._memo) == ["slot_eigs"]


def test_entry_only_after_the_psd_check_at_its_tolerances():
    # Within a loose psd_tol of PSD but not within the default: a check
    # passed at the loose tolerances does not let the default check be
    # skipped.  At the loose tolerances the scan finds a witness (the slot is
    # rank-deficient) and Newton finds Cap = 0 (the slot is not PSD); neither
    # verdict is memoized.
    t = MatrixTuple([np.diag([1.0, -1e-7]), np.eye(2)])
    loose = replace(DEFAULT_TOL, psd_tol=1e-6)
    with pytest.raises(NotIndecomposable):
        capacity_via_scaling(t, loose)
    with pytest.raises(SingularPencil):
        capacity(t, loose)
    assert list(t._memo) == ["slot_eigs"]
    for route in (capacity, scale_to_doubly_stochastic, capacity_via_scaling):
        with pytest.raises(PreconditionViolated):
            route(t)


def test_one_discriminant_per_tuple(monkeypatch):
    # The experiment's readers of D on one sampled DS tuple: the caller,
    # capacity_bound_report, decompose (the tuple and its single part) and
    # m_alpha at the all-ones weight, whose expansion is the tuple.
    t = random_ds_tuple(4, 21)
    stacks = []
    real = _DISC._discriminants
    monkeypatch.setattr(_DISC, "_discriminants", lambda m: stacks.append(m) or real(m))
    d = eval_polarized(t)
    capacity_bound_report(t)
    dec = decompose(t)
    assert m_alpha(t, [1, 1, 1, 1]) == d == eval_polarized(t)
    assert len(stacks) == 1 and dec.product_check == 0.0


def test_gradient_leaves_no_discriminant_entry():
    # gradient's value has the bits of eval_polarized but never passed the
    # residue gate, so it does not stand in for D.
    t = _wishart_tuple(4, 17)
    g = gradient(t)
    assert "polarized" not in t._memo
    assert eval_polarized(t).hex() == g.value.hex()
    assert "polarized" in t._memo


def test_gated_discriminant_is_not_memoized():
    # J_20 sits at the gate and is kept; J_21 raises on every call, keeping nothing.
    j20 = MatrixTuple(np.broadcast_to(np.eye(20) / 20, (20, 20, 20)))
    d = eval_polarized(j20)
    assert list(j20._memo.items()) == [("polarized", d)]
    t = MatrixTuple(np.broadcast_to(np.eye(21) / 21, (21, 21, 21)))
    for _ in range(2):
        with pytest.raises(DimensionTooLarge):
            eval_polarized(t)
    assert not t._memo


@pytest.mark.parametrize(
    "stack",
    [np.broadcast_to(np.eye(4) / 4, (4, 4, 4)), np.asfortranarray(random_ds_tuple(4, 3).matrices)],
    ids=["broadcast", "fortran"],
)
def test_tuples_are_stored_in_c_order(stack):
    # Whatever the input's strides, the stack is C-ordered, so its flattened
    # rows are views, and every route gives the bits of a C-ordered copy.
    t = MatrixTuple(stack)
    copy = MatrixTuple(np.ascontiguousarray(stack))
    assert t.matrices.flags.c_contiguous
    assert t.matrices.tobytes() == copy.matrices.tobytes()
    for fn in (capacity, scale_to_doubly_stochastic, decompose):
        assert _outcome(fn, t) == _outcome(fn, copy), fn.__name__


def test_indecomposable_tuple_is_its_own_part():
    t = random_ds_tuple(5, 3)
    dec = decompose(t)
    assert len(dec.parts) == 1 and dec.parts[0][2] is t
    # A decomposable tuple's blocks are new tuples in restricted coordinates.
    c = np.zeros((3, 3))
    c[0, 0], c[1:, 1:] = 1.0, 0.5
    blocks = decompose(diagonal_tuple(c)).parts
    assert sorted(idx for idx, _, _ in blocks) == [(0,), (1, 2)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_slot_eigensolve_per_tuple(n, monkeypatch):
    # The PSD check of capacity_bound_report and the doubly stochastic checks
    # of decompose and check_doubly_stochastic all read one eigvalsh of the slots.
    t = random_ds_tuple(n, 60 + n)
    fresh = MatrixTuple(t.matrices)
    slot_solves = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.shape(a) == t.matrices.shape and np.array_equal(a, t.matrices):
            slot_solves.append(None)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    capacity_bound_report(t)
    decompose(t)
    report = check_doubly_stochastic(t)
    assert len(slot_solves) == 1
    w = t._memo["slot_eigs"]
    assert not w.flags.writeable
    monkeypatch.setattr(np.linalg, "eigvalsh", real)
    assert w.tobytes() == real(fresh.matrices).tobytes()
    assert _key(report) == _key(check_doubly_stochastic(fresh))


def _count_as_hermitian(monkeypatch):
    calls = []
    real = _DISC.as_hermitian
    monkeypatch.setattr(_DISC, "as_hermitian", lambda *a, **k: calls.append(None) or real(*a, **k))
    return calls


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_library_stacks_skip_a_second_validation(n, monkeypatch):
    # A scaled tuple and the repeated rows of a tuple are exactly Hermitian:
    # they are wrapped without as_hermitian and keep the bits it would give.
    t = _wishart_tuple(n, 80 + n)
    calls = _count_as_hermitian(monkeypatch)
    scaled = scale_to_doubly_stochastic(t).scaled
    alpha = [2, 0] + [1] * (n - 2)
    expanded = expand_tuple(t, alpha)
    assert not calls
    for made in (scaled, expanded):
        assert not made.matrices.flags.writeable and not made._memo
        assert made.n == n and len(made.matrices) == n
        assert made.matrices.tobytes() == MatrixTuple(made.matrices).matrices.tobytes()
    assert expanded.matrices.tobytes() == MatrixTuple(t.matrices[[0, 0] + list(range(2, n))]).matrices.tobytes()
