"""Every dimension gate and the one residue gate of D.

Each gated entry raises DimensionTooLarge one past its limit, through the
single gate ``core._gate``; the limits are the ones the README table lists.
The source checks keep each of the two gates in one place.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mixdisc import discriminant, extremal, genaf, pascal, structure
from mixdisc.core import DimensionTooLarge
from mixdisc.discriminant import MatrixTuple
from mixdisc.pascal import BlockMatrix

SRC = Path(discriminant.__file__).resolve().parent


def _jn(n):
    return MatrixTuple([np.eye(n) / n] * n)


def _blocks(n):
    return BlockMatrix(np.zeros((n, n, n, n)))


# (entry, its argument builder, the largest n it accepts, the n it is called at)
GATED = {
    "eval_polarized": (discriminant.eval_polarized, _jn, 20, 21),
    "gradient": (discriminant.gradient, _jn, 20, 21),
    "permanent": (discriminant.permanent, lambda n: np.ones((n, n)), 20, 21),
    "eval_sigma_det": (discriminant.eval_sigma_det, _jn, 10, 11),
    "eval_signed_permanent": (discriminant.eval_signed_permanent, _jn, 7, 8),
    "eval_double_perm": (discriminant.eval_double_perm, _jn, 6, 7),
    "eval_tensor": (discriminant.eval_tensor, _jn, 6, 7),
    "qp_block": (pascal.qp_block, _blocks, 6, 7),
    "qp_tensor": (pascal.qp_tensor, _blocks, 4, 5),
    "minimize_search": (lambda n: extremal.minimize_search(n, 1, 0), int, 6, 7),
    # decompose has no gate of its own: its product check calls eval_polarized.
    "decompose": (structure.decompose, _jn, 20, 21),
    # N must be even, so the first N past the permanent's gate is 22.
    "af_lower_bound_experiment": (genaf.af_lower_bound_experiment, int, 20, 22),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_each_gated_entry_raises_one_past_its_limit(name):
    entry, build, limit, n = GATED[name]
    arg = build(n)
    with pytest.raises(DimensionTooLarge, match=rf"gated at n <= {limit}, got n = {n}$"):
        entry(arg)


def _named(func) -> str | None:
    return getattr(func, "id", getattr(func, "attr", None))


def _callers(name: str) -> set:
    """module.function of every call of ``name`` in the package, by the
    functions around the call, outermost first (module.outer.inner for a
    nested function; the module itself at top level)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _named(child.func) == name:
                found.add(where)
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_dimension_too_large_is_raised_only_in_core():
    raising = sorted(
        path.name for path in SRC.glob("*.py")
        if "raise DimensionTooLarge" in path.read_text(encoding="utf-8")
    )
    assert raising == ["core.py"]
    assert _callers("DimensionTooLarge") == {"core._gate"}


def test_d_of_hermitian_stacks_is_read_through_one_residue_gate():
    assert _callers("_as_real_d") == {"discriminant._discriminants", "discriminant.eval_sigma_det"}
    # qp_block's block tuples are not Hermitian; its signed sum keeps the fixed gate.
    assert _callers("_polarized_raw") == {"discriminant._discriminants", "pascal.qp_block"}
    for module in ("hyperbolic", "genaf"):
        assert not _imported(module) & {"_as_real_d", "_polarized_raw"}, module


def _imported(module: str) -> set:
    """Every name the package module imports with ``from ... import``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_one_route_per_decision():
    # The generic vectors serve the stacked rank tests, whose one-tuple call
    # answers both public tests and whose stack call is the scaling
    # precondition; decompose reads its tight sets off the indecomposability
    # test.  The recursive split and the trace Gram graph are gone.
    assert _callers("_generic_ranks") == {"structure._rank_tests"}
    assert _callers("_rank_tests") == {
        "structure.is_indecomposable",
        "structure.positivity_rank_test",
        "capacity._scale_stack",
    }
    assert _callers("is_indecomposable") == {"structure.decompose"}
    names = {
        getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not names & {"_split", "combinations"}
    # The subset scan, its chunk size, its gate and the trace Gram components
    # are gone, in code and docs.
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for word in ("_first_subset", "_SCAN_CHUNK", "_GATE_SUBSETS", "_first_tight"):
            assert word not in text, (path.name, word)
    # One writer of each memoized capacity-layer result: Newton runs only in
    # capacity, and the scaling loop only in the stack
    # route _scale_stack, which scale_to_doubly_stochastic (the oracle's
    # route) and the sampler's stack call.  The sampler's stack is what its
    # consumers read.
    assert _callers("_newton") == {"capacity.capacity"}
    assert _callers("_scale_vector") == {"capacity._scale_stack"}
    assert _callers("_scale_stack") == {
        "capacity.scale_to_doubly_stochastic",
        "extremal._random_ds_stack",
    }
    assert _callers("_random_ds_stack") == {
        "extremal.random_ds_tuples",
        "extremal.minimize_search",
        "hyperbolic.conjecture_experiment",
    }
    assert not names & {"_scale_cold", "_require_scalable", "_newton_solve"}
    # qp_tensor sums its quadruple permutation sum itself.
    assert "_double_perm_raw" not in _imported("pascal")


def test_psd_tol_is_read_only_in_core():
    # One PSD rule (core._psd) and one definiteness rule (core._definite);
    # no other module reads psd_tol.
    reads = {
        path.stem: [
            ast.unparse(node)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "psd_tol"
        ]
        for path in SRC.glob("*.py")
        if path.stem != "core"
    }
    assert {k: v for k, v in reads.items() if v} == {}
    for path in SRC.glob("*.py"):
        assert "min_eigenvalue" not in path.read_text(encoding="utf-8"), path.name


def test_ds_tol_is_read_only_in_core():
    # One doubly stochastic rule (core._ds_limit, with core._ds_stop_reason
    # for a loop's stop label): no other module reads ds_tol, though a
    # keyword such as replace(tol, ds_tol=0.0) may set it, and none imports
    # the retired core._ds_floor or reads core's rounding floors.
    reads, imports = {}, {}
    for path in SRC.glob("*.py"):
        if path.stem == "core":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads[path.stem] = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "ds_tol"
        ]
        imports[path.stem] = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "core"
            for alias in node.names
            if alias.name.startswith("_ds")
        }
    assert {k: v for k, v in reads.items() if v} == {}
    assert set().union(*imports.values()) <= {"_ds_limit", "_ds_stop_reason"}
    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    defined = {node.name for node in core.body if isinstance(node, ast.FunctionDef)}
    assert "_ds_floor" not in defined and {"_ds_limit", "_ds_stop_reason"} <= defined
