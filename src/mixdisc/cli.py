"""Command-line front end: JSON documents in, deterministic RunReports out.

Every complex entry is serialized as a two-element array [re, im], always,
even when the imaginary part is zero.  Documents carry schema_version "1".
Exit codes: 0 success, 1 input/validation error, 2 numerical non-convergence
or a dimension gate, 3 internal invariant breach (mathematical-news events).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import extremal, genaf, hyperbolic, pascal, structure
from .capacity import CAPACITY_MAX_ITER, _capacity_of_scaling, scale_to_doubly_stochastic
from .capacity import capacity as _capacity
from .core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    MixdiscError,
    NonConvergence,
    NotDoublyStochastic,
    NotIndecomposable,
    SamplerExhausted,
    SingularPencil,
    Tolerances,
)
from .discriminant import (
    MatrixTuple,
    check_doubly_stochastic,
    eval_double_perm,
    eval_polarized,
    eval_sigma_det,
    eval_signed_permanent,
    eval_tensor,
)

SCHEMA_VERSION = "1"

_ALGORITHMS = {
    "polarized": eval_polarized,
    "sigma-det": eval_sigma_det,
    "double-perm": eval_double_perm,
    "signed-perm": eval_signed_permanent,
    "tensor": eval_tensor,
}

_TOL_FIELDS = ("hermitian_tol", "psd_tol", "rank_tol", "ds_tol", "opt_tol")


class CliInputError(Exception):
    pass


class InvariantBreach(Exception):
    """A would-be-mathematical-news event (e.g. a value below a proven bound)."""


# ---------------------------------------------------------------------------
# serialization ([re, im] pairs everywhere)

def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) for v in pair)
    ):
        raise CliInputError(f"{where}: complex entries must be [re, im] pairs, got {pair!r}")
    return complex(pair[0], pair[1])


def matrix_to_doc(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_to_pair(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


def doc_to_matrix(rows, n: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise CliInputError(f"{where}: expected {n} rows")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise CliInputError(f"{where}, row {i}: expected {n} entries")
        for j, pair in enumerate(row):
            out[i, j] = pair_to_complex(pair, f"{where}, row {i}, col {j}")
    return out


def tuple_to_doc(t: MatrixTuple) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tuple",
        "n": t.n,
        "matrices": [matrix_to_doc(m) for m in t.matrices],
    }


def block_to_doc(bm: pascal.BlockMatrix) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "block",
        "n": bm.n,
        "blocks": [[matrix_to_doc(b) for b in row] for row in bm.blocks],
    }


def _check_header(doc: dict, kind: str) -> int:
    if not isinstance(doc, dict):
        raise CliInputError("document root must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CliInputError(
            f"schema_version must be {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}"
        )
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise CliInputError("field 'n' must be a positive integer")
    if "kind" in doc and doc["kind"] != kind:
        raise CliInputError(f"expected a {kind!r} document, got {doc['kind']!r}")
    return n


def doc_to_tuple(doc: dict, tol: Tolerances) -> MatrixTuple:
    n = _check_header(doc, "tuple")
    mats = doc.get("matrices")
    if not isinstance(mats, list) or len(mats) != n:
        raise CliInputError(f"field 'matrices' must list exactly {n} matrices")
    arrays = [doc_to_matrix(m, n, f"matrices[{k}]") for k, m in enumerate(mats)]
    try:
        return MatrixTuple(arrays, tol)
    except (ValueError, MixdiscError) as exc:
        raise CliInputError(f"invalid tuple: {exc}") from exc


def doc_to_block(doc: dict) -> pascal.BlockMatrix:
    n = _check_header(doc, "block")
    rows = doc.get("blocks")
    if not isinstance(rows, list) or len(rows) != n:
        raise CliInputError(f"field 'blocks' must be an {n} x {n} grid")
    grid = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise CliInputError(f"blocks[{i}] must hold {n} blocks")
        grid.append([doc_to_matrix(b, n, f"blocks[{i}][{j}]") for j, b in enumerate(row)])
    return pascal.BlockMatrix(grid)


def pencil_to_doc(p: hyperbolic.HyperbolicPencil) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pencil",
        "n": p.degree,
        "m": p.m,
        "matrices": [matrix_to_doc(b) for b in p.matrices],
        "e": list(map(float, p.e)),
    }


def doc_to_pencil(doc: dict, tol: Tolerances) -> hyperbolic.HyperbolicPencil:
    n = _check_header(doc, "pencil")
    m = doc.get("m")
    if not isinstance(m, int) or m < 1:
        raise CliInputError("field 'm' must be a positive integer")
    mats = doc.get("matrices")
    if not isinstance(mats, list) or len(mats) != m:
        raise CliInputError(f"field 'matrices' must list exactly {m} matrices")
    arrays = [doc_to_matrix(b, n, f"matrices[{k}]") for k, b in enumerate(mats)]
    e = doc.get("e")
    if not isinstance(e, list) or len(e) != m:
        raise CliInputError(f"field 'e' must be a real {m}-vector")
    try:
        return hyperbolic.HyperbolicPencil(arrays, np.asarray(e, dtype=float), tol)
    except (ValueError, MixdiscError) as exc:
        raise CliInputError(f"invalid pencil: {exc}") from exc


def read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), text.encode("utf-8")
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def digest_of(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def params_digest(**params) -> str:
    return digest_of(json.dumps(params, sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# reports

def emit_report(command: str, digest: str, results: dict, tol: Tolerances, seed, t0: float) -> None:
    report = {
        "command": command,
        "inputs_digest": digest,
        "results": results,
        "tolerances": {f: getattr(tol, f) for f in _TOL_FIELDS},
        "seed": seed,
        "wall_time": time.monotonic() - t0,
    }
    print(json.dumps(report, sort_keys=True))


def _tol_from_args(args) -> Tolerances:
    values = {}
    for f in _TOL_FIELDS:
        flag = getattr(args, f, None)
        if flag is not None:
            values[f] = flag
            continue
        env = os.environ.get(f"MIXDISC_{f.upper()}")
        if env is not None:
            try:
                values[f] = float(env)
            except ValueError as exc:
                raise CliInputError(f"bad MIXDISC_{f.upper()} value {env!r}") from exc
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eval(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    fn = _ALGORITHMS[args.algorithm]
    value = fn(t)
    results = {"D": value, "algorithm": args.algorithm}
    if args.cross_check:
        values = {}
        for name, f in _ALGORITHMS.items():
            try:
                values[name] = f(t)
            except DimensionTooLarge:  # every evaluator gates before any work
                continue
        spread = max(values.values()) - min(values.values())
        results["cross_check"] = {"values": values, "max_deviation": spread}
    emit_report("eval", digest_of(payload), results, tol, None, t0)
    return 0


def _cmd_capacity(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    res = _capacity(t, tol, max_iter=args.max_iter)
    results = {
        "value": res.value,
        "minimizer_x": list(map(float, res.minimizer_x)),
        "gradient_norm": res.gradient_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
    }
    emit_report("capacity", digest_of(payload), results, tol, None, t0)
    return 0


def _cmd_scale(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    res = scale_to_doubly_stochastic(t, tol, max_iter=args.max_iter)
    results = {
        "scaled": tuple_to_doc(res.scaled),
        "alpha": list(map(float, res.alpha)),
        "trace_scalars": list(map(float, res.trace_scalars)),
        "transform_X": matrix_to_doc(res.transform_X),
        "ds_defect": res.ds_defect,
        "iterations": res.iterations,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "capacity_via_scaling": _capacity_of_scaling(res),
    }
    emit_report("scale", digest_of(payload), results, tol, None, t0)
    return 0


def _cmd_decompose(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    res = structure.decompose(t, tol)
    results = {
        "parts": [
            {
                "indices": list(indices),
                "basis": matrix_to_doc(basis),
                "tuple": tuple_to_doc(sub),
            }
            for indices, basis, sub in res.parts
        ],
        "product_check": res.product_check,
    }
    emit_report("decompose", digest_of(payload), results, tol, None, t0)
    return 0


def _cmd_check_ds(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    rep = check_doubly_stochastic(t, tol)
    results = {
        "psd_violation": rep.psd_violation,
        "trace_violation": rep.trace_violation,
        "sum_violation": rep.sum_violation,
        "is_doubly_stochastic": rep.is_doubly_stochastic,
    }
    emit_report("check-ds", digest_of(payload), results, tol, None, t0)
    return 0


def _cmd_bapat_search(args, tol: Tolerances, t0: float) -> int:
    record = extremal.minimize_search(args.n, args.trials, args.seed, tol)
    digest = params_digest(n=args.n, trials=args.trials, seed=args.seed)
    csv_path = f"bapat-search-{digest[:16]}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "best_value"])
        for i, v in enumerate(record.trial_bests):
            writer.writerow([i, repr(v)])
    results = {
        "best_value": record.best_value,
        "bound": extremal.bapat_bound(args.n),
        "trials": record.trials,
        "below_bound": record.below_bound,
        "distance_to_jn": record.distance_to_jn,
        "csv": csv_path,
    }
    emit_report("bapat-search", digest, results, tol, args.seed, t0)
    if record.below_bound:
        raise InvariantBreach(
            f"search value {record.best_value!r} fell below the proven bound"
        )
    return 0


def _cmd_genaf(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    cdoc, cpayload = read_json(args.combination_file)
    if not isinstance(cdoc, dict):
        raise CliInputError("combination document must be a JSON object")
    try:
        comb = genaf.ConvexCombination.build(
            cdoc.get("weights"), cdoc.get("vectors"),
            np.asarray(cdoc.get("target"), dtype=np.int64) if cdoc.get("target") is not None else None,
            t.n,
        )
    except (TypeError, ValueError, MixdiscError) as exc:
        raise CliInputError(f"invalid combination: {exc}") from exc
    rep = genaf.check_theorem52(t, comb, tol)
    results = {"cap_slack": rep.cap_slack, "m_slack": rep.m_slack, "holds": rep.holds}
    emit_report("genaf", digest_of(payload + cpayload), results, tol, None, t0)
    return 0


def _cmd_af_experiment(args, tol: Tolerances, t0: float) -> int:
    res = genaf.af_lower_bound_experiment(args.n)
    results = {
        "per_e": res.per_e,
        "per_alpha1": res.per_alpha1,
        "per_alpha2": res.per_alpha2,
        "ratio": res.ratio,
        "log_deficit": res.log_deficit,
        "log_deficit_over_n": res.log_deficit / args.n,
    }
    emit_report("af-experiment", params_digest(n=args.n), results, tol, None, t0)
    return 0


def _cmd_qp(args, tol: Tolerances, t0: float) -> int:
    doc, payload = read_json(args.file)
    bm = doc_to_block(doc)
    results = {}
    if args.method in ("block", "both"):
        results["qp_block"] = pascal.qp_block(bm)
    if args.method in ("tensor", "both"):
        results["qp_tensor"] = pascal.qp_tensor(bm)
    rep = pascal.check_block_ds(bm, tol)
    results["block_ds"] = {
        "psd_violation": rep.psd_violation,
        "sum_violation": rep.sum_violation,
        "trace_violation": rep.trace_violation,
        "passes": rep.passes,
    }
    emit_report("qp", digest_of(payload), results, tol, None, t0)
    return 0


def _cmd_hyp(args, tol: Tolerances, t0: float) -> int:
    if args.op == "conjecture":
        rep = hyperbolic.conjecture_experiment(args.n, args.samples, args.seed, tol)
        results = {
            "n": rep.n,
            "samples": rep.samples,
            "min_ratio": rep.min_ratio,
            "bound": rep.bound,
            "violations": rep.violations,
            "rejection_rate": rep.rejection_rate,
        }
        emit_report(
            "hyp", params_digest(op="conjecture", n=args.n, samples=args.samples, seed=args.seed),
            results, tol, args.seed, t0,
        )
        if rep.violations:
            raise InvariantBreach(f"{len(rep.violations)} conjecture counterexample candidates")
        return 0
    doc, payload = read_json(args.file)
    pencil = doc_to_pencil(doc, tol)
    if args.op == "roots":
        x = _vector_from_doc(doc, "x", pencil.m)
        r = hyperbolic.roots(pencil, x)
        results = {"roots": list(map(float, r.lam)), "residual": r.residual}
    elif args.op == "trace":
        x = _vector_from_doc(doc, "x", pencil.m)
        results = {"trace_e": hyperbolic.trace_e(pencil, x)}
    elif args.op == "mixed-value":
        xs = _vectors_from_doc(doc, "X", pencil.m, pencil.degree)
        results = {"mixed_value": hyperbolic.mixed_value(pencil, xs)}
    else:  # check-hd
        xs = _vectors_from_doc(doc, "X", pencil.m, pencil.degree)
        rep = hyperbolic.check_hd_membership(pencil, xs, tol)
        results = {
            "nonneg_violation": rep.nonneg_violation,
            "trace_violation": rep.trace_violation,
            "sum_violation": rep.sum_violation,
            "passes": rep.passes,
        }
    emit_report("hyp", digest_of(payload), results, tol, None, t0)
    return 0


def _vector_from_doc(doc: dict, field: str, m: int) -> np.ndarray:
    v = doc.get(field)
    if not isinstance(v, list) or len(v) != m:
        raise CliInputError(f"field {field!r} must be a real {m}-vector")
    return np.asarray(v, dtype=float)


def _vectors_from_doc(doc: dict, field: str, m: int, count: int) -> list:
    vs = doc.get(field)
    if not isinstance(vs, list) or len(vs) != count:
        raise CliInputError(f"field {field!r} must list {count} real {m}-vectors")
    return [
        np.asarray(v, dtype=float)
        if isinstance(v, list) and len(v) == m
        else _bad_vector(field, m)
        for v in vs
    ]


def _bad_vector(field: str, m: int):
    raise CliInputError(f"every entry of {field!r} must be a real {m}-vector")


def _cmd_gen_random(args, tol: Tolerances, t0: float) -> int:
    # Emits the bare document (sorted keys) so it pipes into the other commands.
    if args.kind == "psd":
        from .core import random_psd, spawn_seeds

        mats = [random_psd(args.n, s) for s in spawn_seeds(args.seed, args.n)]
        doc = tuple_to_doc(MatrixTuple(mats, tol))
    elif args.kind == "ds":
        doc = tuple_to_doc(extremal.random_ds_tuple(args.n, args.seed, tol))
    elif args.kind == "block-ds":
        bm = pascal.sample_block_ds(args.n, args.seed, tol)
        if bm is None:
            raise NonConvergence("block-DS sampler did not converge for this seed")
        doc = block_to_doc(bm)
    else:  # separable
        sample = pascal.sample_separable_ds(args.n, args.seed, tol)
        if sample is None:
            raise NonConvergence("separable sampler did not converge for this seed")
        doc = block_to_doc(sample[0])
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixdisc", description="Mixed discriminant toolkit"
    )
    for f in _TOL_FIELDS:
        parser.add_argument(
            f"--{f.replace('_', '-')}", type=float, default=None, dest=f,
            help=f"override {f} (env MIXDISC_{f.upper()})",
        )
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand-absent flag from clobbering a value given before it.
    tol_parent = argparse.ArgumentParser(add_help=False)
    for f in _TOL_FIELDS:
        tol_parent.add_argument(
            f"--{f.replace('_', '-')}", type=float, default=argparse.SUPPRESS,
            dest=f, help=argparse.SUPPRESS,
        )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser(parents=[tol_parent], name="eval", help="mixed discriminant of a tuple document")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="polarized")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser(parents=[tol_parent], name="capacity", help="capacity by convex minimization")
    p.add_argument("file")
    p.add_argument("--max-iter", type=int, default=CAPACITY_MAX_ITER)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser(parents=[tol_parent], name="scale", help="operator scaling to doubly stochastic form")
    p.add_argument("file")
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(fn=_cmd_scale)

    p = sub.add_parser(parents=[tol_parent], name="decompose", help="indecomposable block decomposition")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser(parents=[tol_parent], name="check-ds", help="doubly stochastic tuple report")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_ds)

    p = sub.add_parser(parents=[tol_parent], name="bapat-search", help="falsification search against n!/n^n")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bapat_search)

    p = sub.add_parser(parents=[tol_parent], name="genaf", help="generalized AF inequality slacks")
    p.add_argument("file")
    p.add_argument("combination_file")
    p.set_defaults(fn=_cmd_genaf)

    p = sub.add_parser(parents=[tol_parent], name="af-experiment", help="B = I + cyclic shift permanent experiment")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_af_experiment)

    p = sub.add_parser(parents=[tol_parent], name="qp", help="4-dimensional Pascal determinant of a block matrix")
    p.add_argument("file")
    p.add_argument("--method", choices=["block", "tensor", "both"], default="block")
    p.set_defaults(fn=_cmd_qp)

    p = sub.add_parser(parents=[tol_parent], name="hyp", help="hyperbolic pencil operations")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--op", choices=["roots", "trace", "mixed-value", "check-hd", "conjecture"], required=True)
    p.add_argument("--n", type=int, default=3, help="dimension for --op conjecture")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_hyp)

    p = sub.add_parser(parents=[tol_parent], name="gen-random", help="emit a random document of the given kind")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["psd", "ds", "block-ds", "separable"], default="psd")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen_random)
    return parser


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tol_from_args(args)
        if args.command == "hyp" and args.op != "conjecture" and args.file is None:
            raise CliInputError("hyp needs a pencil document file for this --op")
        return args.fn(args, tol, t0)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        DimensionTooLarge,
        NonConvergence,
        SingularPencil,
        SamplerExhausted,
        NotDoublyStochastic,
        NotIndecomposable,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"INVARIANT BREACH: {exc}", file=sys.stderr)
        return 3
    except MixdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
