import json
import math
import os

import numpy as np
import pytest

from mixdisc.capacity import capacity_via_scaling
from mixdisc.cli import main, matrix_to_doc, tuple_to_doc
from mixdisc.discriminant import MatrixTuple
from mixdisc.extremal import random_ds_tuple


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
        from mixdisc.cli import pencil_to_doc
        from mixdisc.hyperbolic import pencil_from_tuple

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
