"""Self-tests of the benchmark: tracer install/restore, workload smoke runs,
failure accounting and the result line.

Run from the root of a checkout with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import mixdisc  # noqa: E402
from mixdisc import cli, discriminant, structure  # noqa: E402

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _is_wrapper(obj):
    return hasattr(obj, tracer._MARK)


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = {
        "package": mixdisc.eval_polarized,
        "module": discriminant.eval_polarized,
        "sibling": structure.eval_polarized,
        "alias": cli._capacity,
        "table": dict(cli._ALGORITHMS),
        "init": discriminant.MatrixTuple.__dict__["__init__"],
        "det": np.linalg.det,
    }
    tracer.check_untraced()
    tr = tracer.Tracer()
    with tr:
        assert _is_wrapper(mixdisc.eval_polarized)
        assert _is_wrapper(discriminant.eval_polarized)
        assert _is_wrapper(structure.eval_polarized)
        assert _is_wrapper(cli._capacity)
        assert getattr(cli._capacity, tracer._MARK) is before["alias"]
        assert all(_is_wrapper(f) for f in cli._ALGORITHMS.values())
        assert _is_wrapper(discriminant.MatrixTuple.__dict__["__init__"])
        assert _is_wrapper(np.linalg.det)
        with pytest.raises(RuntimeError):
            tracer.check_untraced()
        t = mixdisc.MatrixTuple([np.eye(3) / 3] * 3)
        cli._ALGORITHMS["polarized"](t)
        cli._capacity(t)
    tracer.check_untraced()
    assert mixdisc.eval_polarized is before["package"]
    assert discriminant.eval_polarized is before["module"]
    assert structure.eval_polarized is before["sibling"]
    assert cli._capacity is before["alias"]
    assert cli._ALGORITHMS == before["table"]
    assert all(cli._ALGORITHMS[k] is before["table"][k] for k in before["table"])
    assert discriminant.MatrixTuple.__dict__["__init__"] is before["init"]
    assert np.linalg.det is before["det"]
    names = [tr.names[i] for i in tr.name_id]
    assert "discriminant.MatrixTuple" in names
    assert "discriminant.eval_polarized" in names
    assert "capacity.capacity" in names
    pol = [i for i, n in enumerate(names) if n == "discriminant.eval_polarized"]
    assert [tr.dets[i] for i in pol] == [2**3 - 1]


def test_restore_runs_when_the_traced_code_raises():
    with pytest.raises(mixdisc.DimensionTooLarge):
        with tracer.Tracer():
            mixdisc.eval_sigma_det(mixdisc.MatrixTuple([np.eye(11)] * 11))
    tracer.check_untraced()


def test_det_counts_match_the_formulas():
    rng = np.random.default_rng(3)
    t = mixdisc.MatrixTuple([workloads._wishart(3, rng) for _ in range(3)])
    tr = tracer.Tracer()
    with tr:
        mixdisc.gradient(t)
    metrics, details = layers.compute(tr, 0.0)
    n = 3
    assert metrics["discriminant.det_matrices"]["value"] == n * (n * n + 1) * 2 ** (n - 1) + 2**n - 1
    check = details["det_formula_check"]
    assert check["discriminant.gradient"] == {"checked": 1, "mismatched": 0}
    assert check["discriminant.eval_polarized"] == {"checked": 1, "mismatched": 0}
    assert set(layers.REPORTED) <= set(metrics)
    assert {m for group in layers.TABLE for m in group["metrics"]} <= set(metrics)


def _run(items):
    rec = workloads.Recorder()
    for item in items:
        rec.begin(item.name)
        item.run(rec)
    return rec


def test_smoke_small_tuples():
    rec = _run(workloads.small_tuples(5, 1)[:5])
    assert rec.attempted > 20
    assert not rec.contract_breaches
    assert 0 < rec.min_digits <= workloads.EXACT_DIGITS


def test_smoke_gate_evals():
    items = workloads.gate_evals(5, 1)
    picked = [next(i for i in items if c in i.name) for c in ("J14", "gradient", "J12")]
    rec = _run(picked)
    assert rec.attempted == 5
    assert rec.failed == 0, rec.failures
    assert not rec.contract_breaches


def test_smoke_cli_experiments(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    items = workloads.cli_experiments(5, 1)
    picked = items[:1] + items[5:9] + items[-8:]
    rec = _run(picked)
    assert rec.attempted == len(picked)
    assert rec.failed == 0, rec.failures
    assert not rec.contract_breaches


def test_wrong_reference_is_a_listed_failure_not_a_crash():
    rec = workloads.Recorder()
    j3 = [np.eye(3) / 3] * 3

    rec.begin("wrong reference")
    d = rec.call("eval_polarized", lambda: mixdisc.eval_polarized(mixdisc.MatrixTuple(j3)))
    rec.close("deliberately wrong reference", d, 2.0 * workloads._bapat(3), workloads.RTOL_EVAL)
    rec.begin("library error")
    big = [np.eye(11)] * 11
    assert rec.call("eval_sigma_det", lambda: mixdisc.eval_sigma_det(mixdisc.MatrixTuple(big))) is workloads.FAILED
    rec.begin("crash")
    assert rec.call("broken", lambda: 1 / 0) is workloads.FAILED
    rec.begin("still running")
    d = rec.call("eval_polarized", lambda: mixdisc.eval_polarized(mixdisc.MatrixTuple(j3)))
    rec.close("right reference", d, workloads._bapat(3), workloads.RTOL_EVAL)

    assert (rec.attempted, rec.failed) == (4, 3)
    assert [f["item"] for f in rec.failures] == ["wrong reference", "library error", "crash"]
    assert [f["kind"] for f in rec.failures] == ["tolerance", "raised", "raised"]
    assert [b["item"] for b in rec.contract_breaches] == ["crash"]


def _checkout(tmp_path, with_source=True):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    root = _checkout(tmp_path)
    proc = _bench(root, "--workload", "cli_experiments", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(layers.REPORTED)
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert all(p.is_file() for p in (root / ".perfbench").iterdir()), "temporary directory left behind"


def test_run_fails_without_a_result_where_there_is_no_source(tmp_path):
    root = _checkout(tmp_path, with_source=False)
    proc = _bench(root, "--workload", "gate_evals", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
