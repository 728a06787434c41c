"""One proven-bound rule, ``core._below``, for every verdict against a bound
the paper proves: n!/n^n <= D <= Cap on doubly stochastic tuples and its
corollaries.

A value violates its bound only when it falls below it by more than the
relative slack ``core._BOUND_SLACK``, so a verdict means the same at every n
and at every scale of the bound (n^n/n! is 4.3e7 at n = 20).
"""

import ast
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from mixdisc import core, extremal, genaf, hyperbolic
from mixdisc.capacity import capacity_bound_report
from mixdisc.core import _BOUND_SLACK, PreconditionViolated, SingularPencil, _below, _wishart, make_rng, random_complex_gaussian
from mixdisc.discriminant import MatrixTuple
from mixdisc.extremal import bapat_bound, random_ds_tuple
from mixdisc.genaf import check_theorem52, classical_af_combination

# The module, not the ``capacity`` function the package exports.
CAPACITY = importlib.import_module("mixdisc.capacity")
SRC = Path(core.__file__).parent
READERS = {
    extremal: extremal.minimize_search,
    hyperbolic: hyperbolic.conjecture_experiment,
    CAPACITY: CAPACITY.capacity_bound_report,
    genaf: genaf.check_theorem52,
}


def test_the_slack_lives_in_core_and_every_verdict_reads_it():
    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_BOUND_SLACK" for t in node.targets)
    ]
    assert defined == ["core.py"]
    for module, verdict in READERS.items():
        assert module._below is core._below
        source = inspect.getsource(verdict)
        assert "_below(" in source
        assert "1e-6" not in source and "1e-7" not in source


def test_the_rule_is_relative_and_elementwise():
    assert _BOUND_SLACK == 1e-7
    for bound in (bapat_bound(20), 1.0, 4.3e7):
        assert _below(bound * (1.0 - 2e-7), bound)
        assert not _below(bound * (1.0 - 5e-8), bound)
        assert not _below(bound, bound)
    np.testing.assert_array_equal(_below(np.array([0.5, 1.0 - 5e-8, 2.0]), 1.0), [True, False, False])


def _rotated_jn(n, seed):
    """J_n turned by the Q factor of a seeded complex Gaussian: every slot is
    q (I/n) q*, doubly stochastic with Cap = 1 and D = n!/n^n to rounding."""
    q, _ = np.linalg.qr(random_complex_gaussian(n, make_rng(seed)))
    return MatrixTuple([q @ (np.eye(n) / n) @ q.conj().T] * n)


@pytest.mark.parametrize("n, seed", [(20, 19), (20, 22), (20, 30), (20, 54), (19, 71), (19, 191)])
def test_the_unique_minimizer_sits_inside_the_sandwich(n, seed):
    # An absolute 1e-6 above n^n/n! = 4.3e7 is 2e-14 relative, below the
    # rounding of the ratio at n = 19 and 20: these six read outside it.
    ratio, within = capacity_bound_report(_rotated_jn(n, seed))
    assert within
    upper = n**n / math.factorial(n)
    assert abs(ratio - upper) <= 1e-12 * upper


@pytest.mark.parametrize(
    "side, factor, within",
    [("cap", 1 + 3e-7, False), ("cap", 1 + 5e-8, True), ("lower", 1 - 3e-7, False), ("lower", 1 - 5e-8, True)],
)
def test_the_sandwich_is_relative_on_both_sides(side, factor, within, monkeypatch):
    # D forced just past or just inside either inequality: Cap >= D, and
    # D >= (n!/n^n) Cap, the lower bound.
    t = random_ds_tuple(3, 0)
    cap = CAPACITY.capacity(t).value
    d = factor * (cap if side == "cap" else cap / CAPACITY.n_pow_n_over_factorial(3))
    monkeypatch.setattr(CAPACITY, "eval_polarized", lambda t: d)
    assert capacity_bound_report(t) == (cap / d, within)


def test_existing_verdicts_do_not_move():
    for n in range(2, 7):
        for seed in range(10):
            assert capacity_bound_report(random_ds_tuple(n, seed))[1]
    for n in range(3, 6):
        for seed in range(5):
            t = MatrixTuple(_wishart((n, n, n), seed))
            assert check_theorem52(t, classical_af_combination(n)).holds


def test_a_conjecture_ratio_past_the_slack_is_a_violation(monkeypatch):
    low = bapat_bound(3) * (1.0 - 5e-7)
    monkeypatch.setattr(hyperbolic, "_discriminants", lambda points: np.full(len(points), low))
    rep = hyperbolic.conjecture_experiment(3, 2, 0)
    assert rep.violations == [{"seed": 0, "pencil_index": 0, "ratio": low}] * 2


def test_a_nan_never_reads_as_holding(monkeypatch):
    # NaN is below no bound, so the verdicts that hold unless a value is
    # below refuse it first.
    t = random_ds_tuple(3, 0)
    monkeypatch.setattr(CAPACITY, "eval_polarized", lambda t: math.nan)
    with pytest.raises(PreconditionViolated):
        capacity_bound_report(t)
    monkeypatch.setattr(genaf, "_discriminants", lambda stack: np.full(len(stack), math.nan))
    with pytest.raises(SingularPencil):
        check_theorem52(t, classical_af_combination(3))
