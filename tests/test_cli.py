import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mixdisc import cli
from mixdisc.capacity import CapacityResult, ScalingResult, capacity_via_scaling
from mixdisc.cli import (
    CliInputError,
    InvariantBreach,
    block_to_doc,
    main,
    matrix_to_doc,
    pencil_to_doc,
    tuple_to_doc,
)
from mixdisc.core import (
    DecompositionInconsistent,
    DimensionTooLarge,
    MixdiscError,
    NonConvergence,
    NotDoublyStochastic,
    NotIndecomposable,
    NumericalInconsistency,
    SamplerExhausted,
    SingularPencil,
)
from mixdisc.discriminant import DsTupleReport, MatrixTuple
from mixdisc.extremal import random_ds_tuple
from mixdisc.genaf import AfExperimentResult, Theorem52Report
from mixdisc.hyperbolic import (
    ConjectureExperimentReport,
    HdMembershipReport,
    pencil_from_tuple,
)
from mixdisc.pascal import BlockDsReport, BlockMatrix

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tuple(tmp_path, t, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tuple_to_doc(t), sort_keys=True))
    return str(path)


@pytest.fixture
def ds3(tmp_path):
    return write_tuple(tmp_path, random_ds_tuple(3, 1))


class TestEval:
    def test_basic(self, capsys, ds3):
        code, out, _ = run(capsys, "eval", ds3)
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "eval"
        assert rep["results"]["D"] > 0
        assert len(rep["inputs_digest"]) == 64
        assert set(rep["tolerances"]) == {
            "hermitian_tol", "psd_tol", "rank_tol", "ds_tol", "opt_tol",
        }

    def test_cross_check(self, capsys, ds3):
        code, out, _ = run(capsys, "eval", ds3, "--cross-check")
        rep = json.loads(out)
        assert rep["results"]["cross_check"]["max_deviation"] < 1e-8

    @pytest.mark.parametrize(
        "n, names",
        [(7, {"polarized", "sigma-det", "signed-perm"}), (11, {"polarized"})],
    )
    def test_cross_check_skips_gated_evaluators(self, capsys, tmp_path, n, names):
        path = write_tuple(tmp_path, MatrixTuple([np.eye(n) / n] * n))
        code, out, _ = run(capsys, "eval", path, "--cross-check")
        assert code == 0
        check = json.loads(out)["results"]["cross_check"]
        assert set(check["values"]) == names
        assert check["max_deviation"] <= 1e-12

    @pytest.mark.parametrize("algorithm", ["polarized", "sigma-det"])
    def test_cross_check_evaluates_each_algorithm_once(self, capsys, ds3, monkeypatch, algorithm):
        calls = {}
        for name, f in list(cli._ALGORITHMS.items()):
            def counting(t, name=name, f=f):
                calls[name] = calls.get(name, 0) + 1
                return f(t)
            monkeypatch.setitem(cli._ALGORITHMS, name, counting)
        code, out, _ = run(capsys, "eval", ds3, "--algorithm", algorithm, "--cross-check")
        assert code == 0
        assert calls == dict.fromkeys(cli._ALGORITHMS, 1)
        results = json.loads(out)["results"]
        assert results["cross_check"]["values"][algorithm] == results["D"]

    def test_algorithm_choice(self, capsys, ds3):
        code, out, _ = run(capsys, "eval", ds3, "--algorithm", "sigma-det")
        assert json.loads(out)["results"]["algorithm"] == "sigma-det"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "eval", str(bad))
        assert code == 1
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "/nonexistent/x.json")
        assert code == 1

    def test_invalid_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"n": "\xe9"}')
        code, out, err = run(capsys, "eval", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read")

    def test_stdin(self, capsys, monkeypatch):
        doc = json.dumps(tuple_to_doc(MatrixTuple([np.eye(2) / 2] * 2)))
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "eval", "-")
        assert code == 0
        assert json.loads(out)["results"]["D"] == pytest.approx(0.5)

    def test_bad_schema_version(self, capsys, tmp_path):
        doc = tuple_to_doc(MatrixTuple([np.eye(2)] * 2))
        doc["schema_version"] = "2"
        p = tmp_path / "v2.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", str(p))
        assert code == 1
        assert "schema_version" in err


class TestComplexSerialization:
    def test_pairs_everywhere(self):
        doc = matrix_to_doc(np.array([[1.0 + 2.0j, 0.0], [0.0, 3.0]]))
        assert doc[0][0] == [1.0, 2.0]
        assert doc[1][1] == [3.0, 0.0]


class TestCapacityAndScale:
    def test_capacity(self, capsys, ds3):
        code, out, _ = run(capsys, "capacity", ds3)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["value"] == pytest.approx(1.0, rel=1e-6)
        assert res["converged"] is True
        assert res["stop_reason"] in ("gradient", "roundoff")

    def test_capacity_max_iter_default_is_the_solver_default(self):
        from mixdisc.capacity import CAPACITY_MAX_ITER
        from mixdisc.cli import build_parser

        args = build_parser().parse_args(["capacity", "t.json"])
        assert args.max_iter == CAPACITY_MAX_ITER

    def test_capacity_nonconvergence_exit2(self, capsys, tmp_path):
        path = write_tuple(tmp_path, MatrixTuple([np.diag([4.0, 1.0]), np.diag([1.0, 2.0])]))
        code, _, err = run(capsys, "capacity", path, "--max-iter", "0")
        assert code == 2
        assert "max_iter" in err

    def test_capacity_zero_exit2(self, capsys, tmp_path):
        e1 = np.diag([1.0, 0.0, 0.0])
        path = write_tuple(tmp_path, MatrixTuple([e1, e1, np.eye(3)]))
        code, out, err = run(capsys, "capacity", path)
        assert code == 2
        assert out == ""
        assert "weak rank" in err

    def test_scale_roundtrip(self, capsys, tmp_path):
        t = MatrixTuple([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        path = write_tuple(tmp_path, t)
        code, out, _ = run(capsys, "scale", path)
        rep = json.loads(out)
        assert rep["results"]["converged"]
        assert rep["results"]["stop_reason"] == "ds_tol"
        assert rep["results"]["capacity_via_scaling"] == capacity_via_scaling(t)
        assert rep["results"]["capacity_via_scaling"] == pytest.approx(9.0, rel=1e-8)

    def test_decomposable_input_exit2(self, capsys, tmp_path):
        t = MatrixTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        path = write_tuple(tmp_path, t)
        code, _, err = run(capsys, "scale", path)
        assert code == 2


class TestToleranceResolution:
    def test_flag_overrides_env(self, capsys, ds3, monkeypatch):
        monkeypatch.setenv("MIXDISC_DS_TOL", "0.5")
        code, out, _ = run(capsys, "check-ds", ds3, "--ds-tol", "1e-3")
        assert json.loads(out)["tolerances"]["ds_tol"] == 1e-3

    def test_env_used(self, capsys, ds3, monkeypatch):
        monkeypatch.setenv("MIXDISC_DS_TOL", "1e-2")
        code, out, _ = run(capsys, "check-ds", ds3)
        assert json.loads(out)["tolerances"]["ds_tol"] == 1e-2

    def test_bad_env_rejected(self, capsys, ds3, monkeypatch):
        monkeypatch.setenv("MIXDISC_DS_TOL", "banana")
        code, _, err = run(capsys, "check-ds", ds3)
        assert code == 1


class TestSearchAndExperiments:
    def test_bapat_search_writes_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "bapat-search", "2", "--trials", "3", "--seed", "0")
        assert code == 0
        rep = json.loads(out)
        csv_path = tmp_path / rep["results"]["csv"]
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,best_value"
        assert len(lines) == 4
        assert rep["results"]["stop_reasons"] == ["rejections"] * 3

    def test_bapat_search_n1_exits_1_without_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _exits_1_with_one_error_line(*run(capsys, "bapat-search", "1", "--trials", "1"))
        assert list(tmp_path.iterdir()) == []

    def test_af_experiment(self, capsys):
        code, out, _ = run(capsys, "af-experiment", "6")
        rep = json.loads(out)
        assert rep["results"]["per_e"] == 2.0
        assert rep["results"]["per_alpha1"] == 8.0
        assert rep["results"]["log_deficit"] == pytest.approx(2 * math.log(2))

    def test_conjecture_experiment(self, capsys):
        code, out, _ = run(
            capsys, "hyp", "--op", "conjecture", "--n", "2", "--samples", "20",
            "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)["results"]["violations"] == []


class TestGenRandomPipe:
    def test_ds_pipes_into_check(self, capsys, tmp_path):
        out_path = str(tmp_path / "ds.json")
        code, _, _ = run(capsys, "gen-random", "3", "--seed", "4", "--kind", "ds",
                         "--out", out_path)
        assert code == 0
        code, out, _ = run(capsys, "check-ds", out_path)
        assert json.loads(out)["results"]["is_doubly_stochastic"]

    def test_block_ds_pipes_into_qp(self, capsys, tmp_path):
        out_path = str(tmp_path / "b.json")
        code, _, _ = run(capsys, "gen-random", "2", "--seed", "5", "--kind",
                         "block-ds", "--out", out_path)
        assert code == 0
        code, out, _ = run(capsys, "qp", out_path, "--method", "both")
        rep = json.loads(out)["results"]
        assert rep["qp_block"] == pytest.approx(rep["qp_tensor"], rel=1e-8)
        assert rep["block_ds"]["passes"]

    def test_bare_document(self, capsys):
        code, out, _ = run(capsys, "gen-random", "2", "--seed", "1", "--kind", "psd")
        doc = json.loads(out)
        assert doc["kind"] == "tuple"
        assert "command" not in doc


class TestHypOps:
    def _pencil_path(self, tmp_path, extra=None):
        t = random_ds_tuple(3, 8)
        doc = pencil_to_doc(pencil_from_tuple(t))
        if extra:
            doc.update(extra)
        p = tmp_path / "p.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_roots(self, capsys, tmp_path):
        path = self._pencil_path(tmp_path, {"x": [1.0, 1.0, 1.0]})
        code, out, _ = run(capsys, "hyp", path, "--op", "roots")
        rep = json.loads(out)["results"]
        np.testing.assert_allclose(rep["roots"], np.ones(3), atol=1e-8)
        assert rep["residual"] < 1e-8

    def test_mixed_value(self, capsys, tmp_path):
        path = self._pencil_path(
            tmp_path, {"X": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
        )
        code, out, _ = run(capsys, "hyp", path, "--op", "mixed-value")
        assert code == 0
        assert json.loads(out)["results"]["mixed_value"] > 0

    def test_check_hd(self, capsys, tmp_path):
        path = self._pencil_path(
            tmp_path, {"X": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
        )
        code, out, _ = run(capsys, "hyp", path, "--op", "check-hd")
        assert json.loads(out)["results"]["passes"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "hyp", "--op", "roots")
        assert code == 1


class TestReportShape:
    def test_sorted_keys(self, capsys, ds3):
        _, out, _ = run(capsys, "eval", ds3)
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)


class TestResultEncoder:
    """Reports that come from a library result carry exactly its fields, plus
    the extras their command names, as plain JSON values."""

    @pytest.mark.parametrize(
        "argv, result_class, extras",
        [
            (["capacity", "{tuple}"], CapacityResult, set()),
            (["scale", "{tuple}"], ScalingResult, {"capacity_via_scaling"}),
            (["check-ds", "{tuple}"], DsTupleReport, set()),
            (["genaf", "{tuple}", "{combination}"], Theorem52Report, set()),
            (["af-experiment", "8"], AfExperimentResult, {"log_deficit_over_n"}),
            (["qp", "{block}", "--method", "both"], BlockDsReport, None),
            (["hyp", "--op", "conjecture", "--samples", "20"], ConjectureExperimentReport, set()),
            (["hyp", "{pencil}", "--op", "check-hd"], HdMembershipReport, set()),
        ],
        ids=["capacity", "scale", "check-ds", "genaf", "af-experiment", "qp", "conjecture", "check-hd"],
    )
    def test_fields_and_json_round_trip(self, tmp_path, ds3, argv, result_class, extras):
        paths = {"tuple": ds3}
        for name, doc in [
            ("combination", _AF_COMBINATION),
            ("block", _block_doc([0.5, 0.0])),
            ("pencil", _pencil_doc(X=np.eye(3).tolist())),
        ]:
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        args = cli.build_parser().parse_args([a.format(**paths) for a in argv])
        results = args.fn(args, cli._tol_from_args(args)).results
        names = {f.name for f in fields(result_class)}
        if extras is None:  # qp: the block-DS report under block_ds
            assert set(results) == {"qp_block", "qp_tensor", "block_ds"}
            assert set(results["block_ds"]) == names
        else:
            assert set(results) == names | extras
        assert json.loads(json.dumps(results)) == results

    def test_encoder_values(self):
        t = MatrixTuple([np.eye(2) / 2] * 2)
        assert cli._encode(t) == tuple_to_doc(t)
        z = np.array([[1 + 2j, 0], [0, 3]])
        assert cli._encode(z) == matrix_to_doc(z)
        assert cli._encode(np.array([1.5, 2.0])) == [1.5, 2.0]
        assert cli._encode(("a", 1)) == ["a", 1]
        assert cli._encode({"k": (1,)}) == {"k": (1,)}  # passes through as is


def _tuple_doc(entry):
    """J_2 as a tuple document, with matrices[0][0][0] replaced by ``entry``."""
    doc = tuple_to_doc(MatrixTuple([np.eye(2) / 2] * 2))
    doc["matrices"][0][0][0] = entry
    return doc


def _block_doc(entry):
    """The block-DS matrix with blocks delta_ij I / 2, one entry replaced."""
    doc = block_to_doc(BlockMatrix(np.einsum("ij,kl->ijkl", np.eye(2), np.eye(2) / 2)))
    doc["blocks"][0][0][0][0] = entry
    return doc


def _pencil_doc(**fields):
    doc = pencil_to_doc(pencil_from_tuple(MatrixTuple([np.eye(3) / 3] * 3)))
    doc.update(fields)
    return doc


# Stands for a 5000-digit integer, which json.dumps refuses to write.
_OVERLONG = "<overlong int>"
_AF_COMBINATION = {"weights": [0.5, 0.5], "vectors": [[2, 0, 1], [0, 2, 1]], "target": [1, 1, 1]}


def _exits_1_with_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestMalformedNumbers:
    """Numeric fields take finite JSON numbers only; anything else exits 1."""

    @pytest.mark.parametrize(
        "command, doc, combination",
        [
            ("eval", _tuple_doc([10**400, 0]), None),
            ("eval", _tuple_doc([_OVERLONG, 0]), None),
            ("eval", _tuple_doc([True, 0]), None),
            ("qp", _block_doc([float("nan"), 0.0]), None),
            ("roots", _pencil_doc(x=["a", 1, 1]), None),
            ("roots", _pencil_doc(x=[[1], 1, 1]), None),
            ("roots", _pencil_doc(x=["1", 1, 1]), None),
            ("trace", _pencil_doc(x=[1, 1, 1], e=["1", "1", "1"]), None),
            ("mixed-value", _pencil_doc(X=[[1, 0, 0], [0, 1, 0], [0, 0, float("inf")]]), None),
            ("genaf", None, dict(_AF_COMBINATION, target=["1", "1", "1"])),
            ("genaf", None, dict(_AF_COMBINATION, weights=[True, False], target=[2, 0, 1])),
        ],
        ids=[
            "oversized-int-in-tuple", "overlong-int-in-tuple", "bool-in-tuple", "nan-in-block",
            "string-in-x", "list-in-x", "numeric-string-in-x", "numeric-strings-in-e", "inf-in-X",
            "numeric-strings-in-target", "bool-weights",
        ],
    )
    def test_exit_1(self, capsys, tmp_path, ds3, command, doc, combination):
        if combination is not None:
            comb = tmp_path / "comb.json"
            comb.write_text(json.dumps(combination))
            argv = ["genaf", ds3, str(comb)]
        else:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc).replace(json.dumps(_OVERLONG), "9" * 5000))
            if command in ("eval", "qp"):
                argv = [command, str(path)]
            else:
                argv = ["hyp", str(path), "--op", command]
        _exits_1_with_one_error_line(*run(capsys, *argv))


class TestIntegerRanges:
    """Counts and dimensions below 1 are input errors, not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-random", "0"],
            ["gen-random", "0", "--kind", "block-ds"],
            ["bapat-search", "0"],
            ["bapat-search", "2", "--trials", "0"],
            ["hyp", "--op", "conjecture", "--n", "0"],
            ["hyp", "--op", "conjecture", "--samples", "0"],
            ["gen-random", "2", "--seed", "-1"],
            ["gen-random", "2", "--seed", "-1", "--kind", "ds"],
            ["gen-random", "2", "--seed", "-1", "--kind", "block-ds"],
            ["gen-random", "2", "--seed", "-1", "--kind", "separable"],
            ["bapat-search", "2", "--trials", "2", "--seed", "-1"],
            ["hyp", "--op", "conjecture", "--samples", "3", "--seed", "-1"],
        ],
        ids=[
            "gen-random-n", "gen-random-block-ds-n", "bapat-n", "bapat-trials", "hyp-n",
            "hyp-samples", "gen-random-seed", "gen-random-ds-seed", "gen-random-block-ds-seed",
            "gen-random-separable-seed", "bapat-seed", "hyp-seed",
        ],
    )
    def test_exit_1(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _exits_1_with_one_error_line(*run(capsys, *argv))
        assert list(tmp_path.iterdir()) == []


def _one_by_one_doc(kind, field):
    """A valid 1 x 1 document of ``kind`` whose ``field`` is ``true``."""
    one = MatrixTuple([np.eye(1)])
    doc = {
        "tuple": lambda: tuple_to_doc(one),
        "block": lambda: block_to_doc(BlockMatrix(np.ones((1, 1, 1, 1)))),
        "pencil": lambda: pencil_to_doc(pencil_from_tuple(one)),
    }[kind]()
    doc[field] = True
    return doc


class TestBooleanHeaderFields:
    @pytest.mark.parametrize(
        "kind, field, argv",
        [
            ("tuple", "n", ["eval"]),
            ("block", "n", ["qp"]),
            ("pencil", "n", ["hyp", "--op", "trace"]),
            ("pencil", "m", ["hyp", "--op", "trace"]),
        ],
    )
    def test_true_is_not_1(self, capsys, tmp_path, kind, field, argv):
        path = tmp_path / "doc.json"
        doc = _one_by_one_doc(kind, field)
        if kind == "pencil":
            doc["x"] = [1.0]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv[:1], str(path), *argv[1:])
        _exits_1_with_one_error_line(code, out, err)
        assert repr(field) in err
        # The same document with the integer 1 is accepted.
        doc[field] = 1
        path.write_text(json.dumps(doc))
        assert run(capsys, *argv[:1], str(path), *argv[1:])[0] == 0


class TestExitCodeTable:
    @pytest.mark.parametrize(
        "exc, expected",
        [
            (CliInputError, 1),
            (MixdiscError, 1),
            (NumericalInconsistency, 2),
            (DecompositionInconsistent, 2),
            (DimensionTooLarge, 2),
            (NonConvergence, 2),
            (SingularPencil, 2),
            (SamplerExhausted, 2),
            (NotDoublyStochastic, 2),
            (NotIndecomposable, 2),
            (InvariantBreach, 3),
        ],
    )
    def test_code_of_each_class(self, capsys, ds3, monkeypatch, exc, expected):
        def fail(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(cli, "_capacity", fail)
        code, out, err = run(capsys, "capacity", ds3)
        assert code == expected
        assert out == ""
        assert err == ("INVARIANT BREACH: boom\n" if expected == 3 else "error: boom\n")

    def test_unlisted_exception_propagates(self, capsys, ds3, monkeypatch):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "_capacity", fail)
        with pytest.raises(ZeroDivisionError):
            main(["capacity", ds3])


class TestOneParserPerProcess:
    def test_tolerance_flags_do_not_leak_between_calls(self, capsys, ds3, monkeypatch):
        monkeypatch.delenv("MIXDISC_DS_TOL", raising=False)
        seen = []
        for argv in (
            ["check-ds", ds3, "--ds-tol", "1e-3"],
            ["--ds-tol", "1e-4", "check-ds", ds3],
            ["check-ds", ds3],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            seen.append(json.loads(out)["tolerances"]["ds_tol"])
        assert seen == [1e-3, 1e-4, 1e-8]

    def test_max_iter_does_not_leak_between_calls(self, capsys, tmp_path):
        path = write_tuple(tmp_path, MatrixTuple([np.diag([4.0, 1.0]), np.diag([1.0, 2.0])]))
        assert run(capsys, "capacity", path, "--max-iter", "0")[0] == 2
        assert run(capsys, "capacity", path)[0] == 0

    def test_parser_is_built_once(self, capsys, ds3, monkeypatch):
        cli.build_parser.cache_clear()
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert run(capsys, "check-ds", ds3)[0] == 0
        assert progs.count("mixdisc") == 1


class TestModuleEntryPoint:
    """``python -m mixdisc.cli``, the path the ``mixdisc`` console script takes."""

    def _run(self, cwd, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "mixdisc.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )

    def test_gen_random_prints_a_document(self, tmp_path):
        proc = self._run(tmp_path, "gen-random", "2", "--kind", "psd", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "tuple" and doc["n"] == 2

    def test_missing_file_exits_1_without_a_traceback(self, tmp_path):
        proc = self._run(tmp_path, "eval", "/nonexistent.json")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
