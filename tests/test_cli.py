import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixdisc import cli, extremal, genaf, hyperbolic, pascal
from mixdisc.capacity import CapacityResult, ScalingResult, capacity_via_scaling
from mixdisc.cli import (
    CliInputError,
    InvariantBreach,
    block_to_doc,
    main,
    matrix_to_doc,
    tuple_to_doc,
)
from mixdisc.core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    MixdiscError,
    NonConvergence,
    NotDoublyStochastic,
    NotIndecomposable,
    NumericalInconsistency,
    SamplerExhausted,
    SingularPencil,
)
from mixdisc.discriminant import DsTupleReport, MatrixTuple, eval_polarized
from mixdisc.extremal import bapat_bound, random_ds_tuple
from mixdisc.genaf import AfExperimentResult, Theorem52Report
from mixdisc.hyperbolic import (
    ConjectureExperimentReport,
    HdMembershipReport,
    pencil_from_tuple,
)
from mixdisc.pascal import BlockDsReport, BlockMatrix

from helpers import pencil_to_doc

SRC = Path(__file__).resolve().parents[1] / "src"
_CAP = sys.modules["mixdisc.capacity"]


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
            "hermitian_tol", "psd_tol", "rank_tol", "ds_tol",
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

    @pytest.mark.parametrize("algorithm", ["double-perm", "signed-perm", "tensor"])
    def test_only_the_route_and_its_oracle_are_algorithms(self, capsys, ds3, algorithm):
        # The other three evaluators are reached through --cross-check only.
        code, out, err = run(capsys, "eval", ds3, "--algorithm", algorithm)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith("error: mixdisc eval: argument --algorithm: invalid choice: ")
        assert algorithm in line

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
        assert res["stop_reason"] == "roundoff"

    def test_capacity_max_iter_default_is_the_solver_default(self, capsys, tmp_path, monkeypatch):
        # The command has no cap of its own: it runs at the solver's
        # CAPACITY_MAX_ITER, read when it is called.
        path = write_tuple(tmp_path, MatrixTuple([np.diag([4.0, 1.0]), np.diag([1.0, 2.0])]))
        monkeypatch.setattr(_CAP, "CAPACITY_MAX_ITER", 1)
        code, _, err = run(capsys, "capacity", path)
        assert code == 2
        assert "max_iter = 1 " in err

    def test_capacity_nonconvergence_exit2(self, capsys, tmp_path, monkeypatch):
        path = write_tuple(tmp_path, MatrixTuple([np.diag([4.0, 1.0]), np.diag([1.0, 2.0])]))
        monkeypatch.setattr(_CAP, "CAPACITY_MAX_ITER", 0)
        code, out, err = run(capsys, "capacity", path)
        assert (code, out) == (2, "")
        assert "max_iter" in err

    def test_scale_nonconvergence_exit2(self, capsys, tmp_path, monkeypatch):
        path = write_tuple(tmp_path, MatrixTuple([np.diag([4.0, 1.0]), np.diag([1.0, 2.0])]))
        monkeypatch.setattr(_CAP, "SCALING_MAX_ITER", 0)
        code, out, err = run(capsys, "scale", path)
        assert (code, out) == (2, "")
        assert "scaling max_iter" in err

    @pytest.mark.parametrize("command", ["capacity", "scale"])
    def test_max_iter_is_refused(self, capsys, command):
        # The iteration caps are module constants, not options.
        code, out, err = run(capsys, command, "t.json", "--max-iter", "5")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --max-iter 5" in err

    def test_capacity_zero_exit2(self, capsys, tmp_path):
        e1 = np.diag([1.0, 0.0, 0.0])
        path = write_tuple(tmp_path, MatrixTuple([e1, e1, np.eye(3)]))
        code, out, err = run(capsys, "capacity", path)
        assert code == 2
        assert out == ""
        assert "weak rank" in err

    def test_capacity_of_a_singular_slot_sum_exit2(self, capsys, tmp_path):
        path = write_tuple(tmp_path, MatrixTuple([np.diag([1.0, 0.0])] * 2))
        code, out, err = run(capsys, "capacity", path)
        assert (code, out) == (2, "")
        assert err == "error: sum A_i is singular; the tuple violates the weak rank condition\n"

    def test_capacity_of_a_tiny_non_psd_tuple_exit1(self, capsys, tmp_path):
        # Eigenvalue -1e-10 at entry scale 1e-10: not PSD, whatever the scale.
        t = MatrixTuple([np.diag([1e-12, -1e-10]), np.diag([1e-12, 1e-12])])
        code, out, err = run(capsys, "capacity", write_tuple(tmp_path, t))
        assert code == 1
        assert out == ""
        assert "not PSD" in err

    @pytest.mark.parametrize("delta, psd_tol", [("1e-7", "1e-6"), ("1e-5", "1e-4")])
    def test_capacity_of_a_slot_psd_only_within_psd_tol_exit2(
        self, capsys, tmp_path, delta, psd_tol
    ):
        t = MatrixTuple([np.diag([1.0, -float(delta)]), np.eye(2)])
        path = write_tuple(tmp_path, t)
        code, out, err = run(capsys, "capacity", path, "--psd-tol", psd_tol)
        assert code == 2
        assert out == ""
        assert "not PSD" in err

    def test_scale_roundtrip(self, capsys, tmp_path):
        t = MatrixTuple([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        path = write_tuple(tmp_path, t)
        code, out, _ = run(capsys, "scale", path)
        rep = json.loads(out)
        assert rep["results"]["converged"]
        assert rep["results"]["stop_reason"] == "ds_tol"
        assert rep["results"]["capacity_via_scaling"] == capacity_via_scaling(t)
        assert rep["results"]["capacity_via_scaling"] == pytest.approx(9.0, rel=1e-8)

    def test_scale_report_has_no_alpha(self, capsys, ds3):
        # trace_scalars over their geometric mean is not a field of its own.
        code, out, _ = run(capsys, "scale", ds3)
        assert code == 0
        assert "alpha" not in json.loads(out)["results"]

    def test_decomposable_input_exit2(self, capsys, tmp_path):
        t = MatrixTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        path = write_tuple(tmp_path, t)
        code, _, err = run(capsys, "scale", path)
        assert code == 2

    def test_decompose_partitions_the_slots(self, capsys, tmp_path):
        # Slots 0, 1 act on the first two coordinates, slots 2, 3 on the last two.
        mats = np.zeros((4, 4, 4), dtype=complex)
        mats[:2, :2, :2] = random_ds_tuple(2, 3).matrices
        mats[2:, 2:, 2:] = random_ds_tuple(2, 4).matrices
        t = MatrixTuple(mats)
        code, out, _ = run(capsys, "decompose", write_tuple(tmp_path, t))
        assert code == 0
        rep = json.loads(out)["results"]
        indices = [part["indices"] for part in rep["parts"]]
        assert sorted(indices) == [[0, 1], [2, 3]]
        for part in rep["parts"]:
            assert part["tuple"]["n"] == len(part["indices"])
        assert rep["product_check"] <= 1e-8 * (1.0 + eval_polarized(t))


class TestToleranceResolution:
    """Tolerances come from the command-line flags, else the defaults."""

    def test_flag_overrides_env(self, capsys, ds3, monkeypatch):
        monkeypatch.setenv("MIXDISC_DS_TOL", "0.5")
        code, out, _ = run(capsys, "check-ds", ds3, "--ds-tol", "1e-3")
        assert json.loads(out)["tolerances"]["ds_tol"] == 1e-3

    @pytest.mark.parametrize("value", ["1e-2", "banana"])
    def test_env_is_ignored(self, capsys, ds3, monkeypatch, value):
        monkeypatch.setenv("MIXDISC_DS_TOL", value)
        code, out, _ = run(capsys, "check-ds", ds3)
        assert code == 0
        assert json.loads(out)["tolerances"]["ds_tol"] == DEFAULT_TOL.ds_tol

    @pytest.mark.parametrize(
        "argv",
        [["3", "--kind", "ds", "--seed", "1"], ["2", "--kind", "separable", "--seed", "2"]],
        ids=["ds", "separable"],
    )
    def test_seeded_document_ignores_the_environment(self, capsys, monkeypatch, argv):
        # The bare document records no tolerance, so none may come from
        # outside the command line.
        plain = run(capsys, "gen-random", *argv)
        monkeypatch.setenv("MIXDISC_DS_TOL", "1e-3")
        assert run(capsys, "gen-random", *argv) == plain

    def test_cli_reads_no_environment_variable(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert not re.search(r"\bos\b|environ|getenv", source)


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
        assert rep["results"]["stop_reasons"] == ["roundoff"] * 3

    def test_bapat_search_csv_it_cannot_write_exits_1(self, capsys, tmp_path, monkeypatch):
        # A directory at the CSV's path: the open fails whatever the user's
        # permissions, and the run ends in one error line, not a traceback.
        monkeypatch.chdir(tmp_path)
        digest = cli.params_digest(n=2, trials=1, seed=0)
        (tmp_path / f"bapat-search-{digest[:16]}.csv").mkdir()
        code, out, err = run(capsys, "bapat-search", "2", "--trials", "1", "--seed", "0")
        _exits_1_with_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write bapat-search-{digest[:16]}.csv: ")

    def test_gen_random_out_it_cannot_write_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "gen-random", "2", "--out", str(path))
        _exits_1_with_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.parent.exists()

    def test_bapat_search_n1_exits_1_without_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _exits_1_with_one_error_line(*run(capsys, "bapat-search", "1", "--trials", "1"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["af-experiment", "22"], 20),
            (["bapat-search", "7", "--trials", "1"], 6),
            (["hyp", "--op", "conjecture", "--n", "21", "--samples", "1000"], 20),
        ],
        ids=["af-experiment", "bapat-search", "conjecture"],
    )
    def test_dimension_gate_exits_2(self, capsys, tmp_path, monkeypatch, argv, limit):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"gated at n <= {limit}" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_search_relatively_below_the_bound_exits_3(self, capsys, tmp_path, monkeypatch):
        # 2e-7 of the bound below it, inside the old absolute 1e-7 slack.
        monkeypatch.chdir(tmp_path)
        value = extremal.bapat_bound(6) * (1.0 - 2e-7)
        monkeypatch.setattr(extremal, "_descend", lambda mats, tol: (mats, value, "roundoff"))
        code, out, err = run(capsys, "bapat-search", "6", "--trials", "1")
        assert code == 3
        assert json.loads(out)["results"]["below_bound"] is True
        assert err.startswith("INVARIANT BREACH: search value ")

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

    def test_a_failed_conjecture_recheck_exits_2(self, capsys, monkeypatch):
        # A mixture moved off the e-doubly stochastic set fails the membership
        # recheck of a mixture that is e-doubly stochastic by construction: a
        # failed cross-check, with no report, naming the limit it used, here
        # the rounding floor 8 n eps above ds_tol = 1e-15.
        draw = hyperbolic._random_ds_matrices
        monkeypatch.setattr(
            hyperbolic, "_random_ds_matrices", lambda k, n, rng: draw(k, n, rng) * (1.0 + 1e-13)
        )
        code, out, err = run(
            capsys, "--ds-tol", "1e-15", "hyp", "--op", "conjecture", "--n", "3",
            "--samples", "200", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: mixture 0 of pencil 0 ") and err.count("\n") == 1
        assert "membership recheck" in err and err.endswith(f"against the limit {24 * sys.float_info.epsilon:.3g}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ds-tol", "1e-15", "hyp", "--op", "conjecture", "--n", "3", "--samples", "200", "--seed", "1"],
            ["--ds-tol", "1e-15", "hyp", "--op", "conjecture", "--n", "4", "--samples", "200", "--seed", "2"],
            ["--ds-tol", "0", "hyp", "--op", "conjecture", "--n", "3", "--samples", "200", "--seed", "1"],
        ],
        ids=["n3-1e-15", "n4-1e-15", "n3-0"],
    )
    def test_conjecture_below_the_rounding_floor_exits_0(self, capsys, argv):
        # Every mixture is e-doubly stochastic to rounding, and the recheck
        # holds it to max(ds_tol, 8 n eps), so a ds_tol below that floor
        # rejects none of them.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
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

    def test_separable_pipes_into_qp(self, capsys, tmp_path):
        out_path = str(tmp_path / "s.json")
        code, _, _ = run(capsys, "gen-random", "3", "--seed", "1", "--kind",
                         "separable", "--out", out_path)
        assert code == 0
        code, out, _ = run(capsys, "qp", out_path, "--method", "block")
        rep = json.loads(out)["results"]
        assert rep["block_ds"]["passes"]
        # A separable block doubly stochastic rho has QP(rho) >= n!/n^n.
        assert rep["qp_block"] >= bapat_bound(3)

    @pytest.mark.parametrize("kind", ["block-ds", "separable"])
    def test_a_sampler_at_its_step_cap_names_its_defect(self, kind, capsys, monkeypatch):
        # One scaling step leaves the draw far from block doubly stochastic:
        # the sampler raises NonConvergence, and the command exits 2 with its
        # one-line message, which names the steps and the defect.
        monkeypatch.setattr(pascal, "_SAMPLER_MAX_ITER", 1)
        code, out, err = run(capsys, "gen-random", "2", "--seed", "5", "--kind", kind)
        assert code == 2 and out == ""
        assert re.fullmatch(
            r"error: block doubly stochastic scaling hit max_iter after 1 steps "
            r"with defect \d\.\d{3}e[-+]\d\d\n",
            err,
        )

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


def test_genaf_rejects_a_target_that_is_not_integers(capsys, tmp_path):
    # 2.9 and -0.9 are not weight-vector entries; truncated, they would read
    # as the valid target (2, 0), and the command would report that it holds.
    t = write_tuple(tmp_path, MatrixTuple([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]))
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"weights": [1.0], "vectors": [[2, 0]], "target": [2.9, -0.9]}))
    code, out, err = run(capsys, "genaf", t, str(comb))
    _exits_1_with_one_error_line(code, out, err)
    assert "invalid combination" in err
    comb.write_text(json.dumps({"weights": [1.0], "vectors": [[2, 0]], "target": [2, 0]}))
    code, out, _ = run(capsys, "genaf", t, str(comb))
    assert code == 0 and json.loads(out)["results"]["holds"] is True


_SHAPE = (2, 2, 2, 2, 2)
_MAX_INT = int(sys.float_info.max)
_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    # The float maximum as an int, and ints beyond it that round down to it.
    st.sampled_from([_MAX_INT, -_MAX_INT, _MAX_INT + 1, -_MAX_INT - 2**900]),
)
_BAD_LEAVES = st.sampled_from(
    [True, False, "1.5", None, [1.0], [], math.nan, math.inf, -math.inf, 10**400, -(10**400)]
)


def _nested(leaves):
    """32 leaves as nested lists of shape (2, 2, 2, 2, 2)."""
    for _ in _SHAPE[1:]:
        leaves = [leaves[i : i + 2] for i in range(0, len(leaves), 2)]
    return leaves


@st.composite
def nested_numbers(draw):
    """Nested lists of shape (2, 2, 2, 2, 2), with one bad leaf or none."""
    leaves = draw(st.lists(_LEAVES, min_size=32, max_size=32))
    bad = draw(st.none() | st.tuples(st.integers(0, 31), _BAD_LEAVES))
    if bad is not None:
        leaves[bad[0]] = bad[1]
    return _nested(leaves)


def _numbers_outcome(value):
    try:
        return cli._numbers(value, _SHAPE, "blocks")
    except CliInputError as exc:
        return str(exc)


def _recursive_check(v, dims, at):
    """The reference: a depth-first walk that names the first bad position in
    reading order, which for one bad leaf is the one ``_numbers`` names."""
    if not dims:
        # bool is an int subclass.  The range test also rejects NaN,
        # infinities and ints that would overflow a float.
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not (number and -sys.float_info.max <= v <= sys.float_info.max):
            raise CliInputError(f"{at}: expected a finite number, got {v!r:.40}")
        return
    if not isinstance(v, list) or dims[0] not in (None, len(v)):
        size = "" if dims[0] is None else f" of {dims[0]} entries"
        raise CliInputError(f"{at}: expected a list{size}")
    for i, item in enumerate(v):
        _recursive_check(item, dims[1:], f"{at}[{i}]")


@settings(max_examples=150, deadline=None)
@given(nested_numbers())
# The float maximum as an int is a good leaf that the fast path's strict
# bound refuses, so every run takes _numbers' slow path to its return.
@example(_nested([_MAX_INT] + [0.0] * 31))
def test_one_pass_numbers_match_the_recursive_check(value):
    got = _numbers_outcome(value)
    try:
        _recursive_check(value, _SHAPE, "blocks")
    except CliInputError as exc:
        assert got == str(exc)
        return
    expected = np.array(value, dtype=float)
    assert got.shape == expected.shape == _SHAPE
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "value, message",
    [
        # A short list at depth 1 is named before a bad leaf earlier in
        # reading order, at depth 2.
        ([["x", 1.0], [1.0]], "w[1]: expected a list of 2 entries"),
        ([[1.0, "x"], [1.0, True]], "w[0][1]: expected a finite number, got 'x'"),
        (5, "w: expected a list of 2 entries"),
    ],
)
def test_the_shallowest_bad_position_is_named(value, message):
    with pytest.raises(CliInputError) as info:
        cli._numbers(value, (2, 2), "w")
    assert str(info.value) == message


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

    def test_search_below_the_bound_reports_then_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        search = extremal.minimize_search

        def below(*args):
            record = search(*args)
            record.below_bound = True
            return record

        monkeypatch.setattr(extremal, "minimize_search", below)
        code, out, err = run(capsys, "bapat-search", "2", "--trials", "1")
        assert code == 3
        assert json.loads(out)["results"]["below_bound"] is True
        assert err.startswith("INVARIANT BREACH: search value ")

    def test_conjecture_violation_reports_then_exits_3(self, capsys, monkeypatch):
        experiment = hyperbolic.conjecture_experiment
        violation = {"seed": 0, "pencil_index": 0, "ratio": 0.25}

        def violated(*args):
            return dataclasses.replace(experiment(*args), violations=[violation])

        monkeypatch.setattr(hyperbolic, "conjecture_experiment", violated)
        code, out, err = run(capsys, "hyp", "--op", "conjecture", "--n", "2", "--samples", "5")
        assert code == 3
        assert json.loads(out)["results"]["violations"] == [violation]
        assert err == "INVARIANT BREACH: 1 conjecture counterexample candidates\n"

    @pytest.mark.parametrize("n", [14, 16])
    def test_a_ratio_at_half_the_bound_exits_3_at_every_n(self, n, capsys, monkeypatch):
        # At n = 16 the bound n!/n^n is 1.13e-6, below an absolute 1e-6
        # slack; the relative slack still flags half the bound.
        half = 0.5 * extremal.bapat_bound(n)
        monkeypatch.setattr(hyperbolic, "_discriminants", lambda points: np.full(len(points), half))
        code, out, err = run(capsys, "hyp", "--op", "conjecture", "--n", str(n), "--samples", "2")
        assert code == 3
        assert [v["ratio"] for v in json.loads(out)["results"]["violations"]] == [half, half]
        assert err == "INVARIANT BREACH: 2 conjecture counterexample candidates\n"

    def test_a_ratio_past_the_one_slack_exits_3(self, capsys, monkeypatch):
        # 5e-7 below the bound, relative: inside the old 1e-6 slack, past 1e-7.
        low = (1.0 - 5e-7) * extremal.bapat_bound(3)
        monkeypatch.setattr(hyperbolic, "_discriminants", lambda points: np.full(len(points), low))
        code, out, _ = run(capsys, "hyp", "--op", "conjecture", "--n", "3", "--samples", "2")
        assert code == 3
        assert [v["ratio"] for v in json.loads(out)["results"]["violations"]] == [low, low]

    def _genaf_with_m_slack_minus_one(self, capsys, tmp_path, monkeypatch, ds3):
        # One vector equal to the target: cap_slack is exactly 0 and m_slack
        # is log(n^n/n!), which the patched constant turns into -1.
        comb = tmp_path / "comb.json"
        comb.write_text(json.dumps({"weights": [1.0], "vectors": [[1, 1, 1]], "target": [1, 1, 1]}))
        monkeypatch.setattr(genaf, "n_pow_n_over_factorial", lambda n: math.exp(-1.0))
        return run(capsys, "genaf", ds3, str(comb))

    def test_a_failed_af_slack_reports_then_exits_3(self, capsys, tmp_path, monkeypatch, ds3):
        code, out, err = self._genaf_with_m_slack_minus_one(capsys, tmp_path, monkeypatch, ds3)
        results = json.loads(out)["results"]
        assert code == 3
        assert (results["cap_slack"], results["holds"]) == (0.0, False)
        assert results["m_slack"] == pytest.approx(-1.0, abs=1e-12)
        assert err.startswith("INVARIANT BREACH: AF slacks 0.0 and ")

    def test_a_failed_slack_with_a_stalled_capacity_exits_0(self, capsys, tmp_path, monkeypatch, ds3):
        real = genaf.capacity
        stalled = lambda *args: dataclasses.replace(real(*args), converged=False, stop_reason="stalled")  # noqa: E731
        monkeypatch.setattr(genaf, "capacity", stalled)
        code, out, err = self._genaf_with_m_slack_minus_one(capsys, tmp_path, monkeypatch, ds3)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["holds"] is False

    def test_unlisted_exception_propagates(self, capsys, ds3, monkeypatch):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "_capacity", fail)
        with pytest.raises(ZeroDivisionError):
            main(["capacity", ds3])


class TestUsageErrors:
    """argparse's own errors are input errors: exit 1 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-random", "abc"],
            [],
            ["no-such-command"],
            ["hyp", "--op", "no-such-op"],
            ["eval"],
            ["--ds-tol", "x", "check-ds", "t.json"],
            ["capacity", "t.json", "--opt-tol", "1e-3"],
            ["--opt-tol", "1e-3", "capacity", "t.json"],
        ],
    )
    def test_exit_1(self, capsys, argv):
        _exits_1_with_one_error_line(*run(capsys, *argv))

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--opt-tol", "1e-3", "capacity", "t.json"], "--opt-tol 1e-3"),
            (["--opt-tol=1e-3", "capacity", "t.json"], "--opt-tol=1e-3"),
            (["--ds-tol", "0", "--no-such-flag", "check-ds", "t.json"], "--no-such-flag"),
        ],
    )
    def test_unknown_flag_before_the_subcommand_is_named(self, capsys, argv, named):
        # Its value used to be read as the subcommand: "invalid choice: '1e-3'".
        code, out, err = run(capsys, *argv)
        _exits_1_with_one_error_line(code, out, err)
        assert err == f"error: mixdisc: unrecognized arguments: {named}\n"

    def test_known_flags_before_the_subcommand_still_parse(self, capsys, ds3):
        code, out, _ = run(capsys, "--ds-tol", "1e-4", "--psd-tol=1e-8", "check-ds", ds3)
        assert code == 0
        tolerances = json.loads(out)["tolerances"]
        assert (tolerances["ds_tol"], tolerances["psd_tol"]) == (1e-4, 1e-8)
        code, out, err = run(capsys, "--ds-tol", "-1", "check-ds", ds3)
        _exits_1_with_one_error_line(code, out, err)
        assert "ds_tol must lie in [0, 1)" in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen-random", "--help"])
        assert info.value.code == 0
        assert "usage: mixdisc gen-random" in capsys.readouterr().out


class TestInvalidDocuments:
    """Each malformed document or flag exits 1 with one error line."""

    @pytest.mark.parametrize(
        "doc",
        [
            dict(tuple_to_doc(MatrixTuple([np.eye(2) / 2] * 2)), matrices=[[[[0.5, 0]] * 2] * 2]),
            [1, 2],
            dict(tuple_to_doc(MatrixTuple([np.eye(2) / 2] * 2)), kind="block"),
            dict(tuple_to_doc(MatrixTuple([np.eye(2) / 2] * 2)), matrices=[[[[1, 0], [1, 0]], [[0, 0], [1, 0]]]] * 2),
        ],
        ids=["list-of-wrong-length", "non-object-root", "wrong-kind", "non-hermitian-tuple"],
    )
    def test_tuple_document(self, capsys, tmp_path, doc):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        _exits_1_with_one_error_line(*run(capsys, "check-ds", str(path)))

    def test_non_hermitian_block_document(self, capsys, tmp_path):
        # A complex Gaussian grid: its assembled matrix is far from
        # Hermitian, an input error rather than a failed residue gate (exit 2).
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        doc = dict(_block_doc([0.5, 0.0]), blocks=matrix_to_doc(blocks))
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "qp", str(path))
        _exits_1_with_one_error_line(code, out, err)
        assert err.startswith("error: invalid block matrix: Hermiticity defect ")

    def test_indefinite_pencil(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_pencil_doc(e=[-1.0, -1.0, -1.0], x=[1, 1, 1])))
        _exits_1_with_one_error_line(*run(capsys, "hyp", str(path), "--op", "roots"))

    def test_ds_tol_out_of_range(self, capsys, ds3):
        _exits_1_with_one_error_line(*run(capsys, "check-ds", ds3, "--ds-tol", "1.5"))

    def test_non_object_combination(self, capsys, tmp_path, ds3):
        comb = tmp_path / "comb.json"
        comb.write_text("[0.5, 0.5]")
        code, out, err = run(capsys, "genaf", ds3, str(comb))
        _exits_1_with_one_error_line(code, out, err)
        assert err == "error: combination document must be a JSON object\n"


class TestFourTolerances:
    """Every report's ``tolerances`` holds the four fields of ``Tolerances``."""

    KEYS = {"hermitian_tol", "psd_tol", "rank_tol", "ds_tol"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{tuple}"],
            ["capacity", "{tuple}"],
            ["scale", "{tuple}"],
            ["decompose", "{tuple}"],
            ["check-ds", "{tuple}"],
            ["bapat-search", "2", "--trials", "2"],
            ["genaf", "{tuple}", "{combination}"],
            ["af-experiment", "8"],
            ["qp", "{block}"],
            ["hyp", "{pencil}", "--op", "roots"],
            ["hyp", "{pencil}", "--op", "trace"],
            ["hyp", "{pencil}", "--op", "mixed-value"],
            ["hyp", "{pencil}", "--op", "check-hd"],
            ["hyp", "--op", "conjecture", "--samples", "20"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith(("{", "-")) and not a.isdigit()),
    )
    def test_every_report_has_four(self, capsys, tmp_path, monkeypatch, ds3, argv):
        monkeypatch.chdir(tmp_path)  # bapat-search writes its CSV here
        paths = {"tuple": ds3}
        for name, doc in [
            ("combination", _AF_COMBINATION),
            ("block", _block_doc([0.5, 0.0])),
            ("pencil", _pencil_doc(x=[1.0, 1.0, 1.0], X=np.eye(3).tolist())),
        ]:
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        code, out, _ = run(capsys, *[a.format(**paths) for a in argv])
        assert code == 0
        assert set(json.loads(out)["tolerances"]) == self.KEYS


class TestOneParserPerProcess:
    def test_tolerance_flags_do_not_leak_between_calls(self, capsys, ds3):
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

    def test_max_iter_does_not_leak_between_calls(self, capsys, tmp_path, monkeypatch):
        path = write_tuple(tmp_path, MatrixTuple([np.diag([4.0, 1.0]), np.diag([1.0, 2.0])]))
        with monkeypatch.context() as m:
            m.setattr(_CAP, "CAPACITY_MAX_ITER", 0)
            assert run(capsys, "capacity", path)[0] == 2
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
