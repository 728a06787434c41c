"""Command-line front end: JSON documents in, deterministic RunReports out.

Every complex entry is serialized as a two-element array [re, im], always,
even when the imaginary part is zero.  Documents carry schema_version "1".
Every numeric field (``matrices``, ``blocks``, ``e``, ``x``, ``X`` and the
genaf ``weights``, ``vectors`` and ``target``) takes finite JSON numbers
only, nested in exactly its shape: a string, boolean, null, NaN, infinity or
a number beyond the float range is an input error.  A report's ``results``
carry the fields of the library result it comes from, by name, plus any
extra field the command adds.

Exit codes come from one table, ``_EXIT_CODES``, looked up along the class
hierarchy of the exception:

- 0: success;
- 1: input, usage or validation error (``CliInputError``, which every
  argument parsing error becomes, and every other ``MixdiscError``);
- 2: numerical failure or a gate (``DimensionTooLarge``,
  ``NonConvergence``, ``SingularPencil``, ``SamplerExhausted``,
  ``NotDoublyStochastic``, ``NotIndecomposable``, and a failed internal
  cross-check, ``NumericalInconsistency``);
- 3: internal invariant breach (``InvariantBreach``, a would-be
  mathematical-news event).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import sys
import time
from dataclasses import fields, is_dataclass
from typing import NamedTuple

import numpy as np

from . import extremal, genaf, hyperbolic, pascal, structure
from .capacity import capacity_via_scaling, scale_to_doubly_stochastic
from .capacity import capacity as _capacity
from .core import (
    DimensionTooLarge,
    MixdiscError,
    NonConvergence,
    NotDoublyStochastic,
    NotIndecomposable,
    NumericalInconsistency,
    SamplerExhausted,
    SingularPencil,
    Tolerances,
    _wishart,
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

# The evaluators that ``eval --cross-check`` reports.  ``--algorithm`` picks
# one of the first two: the production route or its independent oracle.
_ALGORITHMS = {
    "polarized": eval_polarized,
    "sigma-det": eval_sigma_det,
    "double-perm": eval_double_perm,
    "signed-perm": eval_signed_permanent,
    "tensor": eval_tensor,
}

_TOL_FIELDS = tuple(f.name for f in fields(Tolerances))

_FLOAT_MAX = sys.float_info.max


class CliInputError(Exception):
    pass


class InvariantBreach(Exception):
    """A would-be-mathematical-news event (e.g. a value below a proven bound)."""


_EXIT_CODES = {
    CliInputError: 1,
    MixdiscError: 1,
    DimensionTooLarge: 2,
    NonConvergence: 2,
    SingularPencil: 2,
    SamplerExhausted: 2,
    NotDoublyStochastic: 2,
    NotIndecomposable: 2,
    NumericalInconsistency: 2,
    InvariantBreach: 3,
}


# ---------------------------------------------------------------------------
# serialization ([re, im] pairs everywhere)

def matrix_to_doc(m) -> list:
    """A complex matrix, or a stack of them, as nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def _numbers(value, shape: tuple, where: str) -> np.ndarray:
    """``value`` as a float array, once it is checked, one nesting level at a
    time, to be nested lists of exactly ``shape`` (a ``None`` first length
    takes any length) whose entries are finite JSON numbers.  The error
    names the first bad position of the shallowest level that has one."""

    def fail(bad, depth, what):
        index = np.unravel_index(bad[0], [len(value) if s is None else s for s in shape[:depth]])
        raise CliInputError(f"{where}{''.join(f'[{i}]' for i in index)}: expected {what}")

    level = [value]
    for depth, size in enumerate(shape):
        bad = [k for k, v in enumerate(level) if type(v) is not list or size not in (None, len(v))]
        if bad:
            fail(bad, depth, "a list" + ("" if size is None else f" of {size} entries"))
        level = list(itertools.chain.from_iterable(level))
    # Every leaf exactly int or float, and below the float maximum once converted.
    with contextlib.suppress(OverflowError):  # an int beyond the float range
        if {type(v) for v in level} <= {int, float}:
            if (np.abs(array := np.array(value, dtype=float)) < _FLOAT_MAX).all():
                return array
    # bool is an int subclass.  The range test is exact for ints (one just
    # beyond the float maximum rounds down to it) and rejects NaN and infinities.
    bad = [
        k for k, v in enumerate(level)
        if type(v) is bool or not (isinstance(v, (int, float)) and abs(v) <= _FLOAT_MAX)
    ]
    if bad:
        fail(bad, len(shape), f"a finite number, got {level[bad[0]]!r:.40}")
    return np.array(value, dtype=float)


def _complex_numbers(value, shape: tuple, where: str) -> np.ndarray:
    """Nested [re, im] pairs of ``shape`` as one complex array."""
    return _numbers(value, (*shape, 2), where).view(np.complex128)[..., 0]


def tuple_to_doc(t: MatrixTuple) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tuple",
        "n": t.n,
        "matrices": matrix_to_doc(t.matrices),
    }


def block_to_doc(bm: pascal.BlockMatrix) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "block",
        "n": bm.n,
        "blocks": matrix_to_doc(bm.blocks),
    }


def pencil_to_doc(p: hyperbolic.HyperbolicPencil) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pencil",
        "n": p.degree,
        "m": p.m,
        "matrices": matrix_to_doc(p.matrices),
        "e": p.e.tolist(),
    }


def _encode(value):
    """A library result as JSON values: a dataclass as the dict of its fields,
    a ``MatrixTuple`` as its document, a complex array as [re, im] pairs, a
    real array or a tuple as a list.  Every report that is a result's fields
    comes from here.  ``roots`` (``lam`` named ``roots``), ``decompose``
    (triples as named objects), ``bapat-search`` (adds ``bound`` and ``csv``,
    drops the tuples) and ``eval`` (no result class) map their fields by hand.
    """
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, MatrixTuple):
        return tuple_to_doc(value)
    if isinstance(value, np.ndarray):
        return matrix_to_doc(value) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, tuple):
        return list(value)
    return value


def _positive_int(doc: dict, field: str) -> int:
    v = doc.get(field)
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:  # bool is an int
        raise CliInputError(f"field {field!r} must be a positive integer")
    return v


def _check_header(doc: dict, kind: str) -> int:
    if not isinstance(doc, dict):
        raise CliInputError("document root must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CliInputError(
            f"schema_version must be {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}"
        )
    n = _positive_int(doc, "n")
    if "kind" in doc and doc["kind"] != kind:
        raise CliInputError(f"expected a {kind!r} document, got {doc['kind']!r}")
    return n


def doc_to_tuple(doc: dict, tol: Tolerances) -> MatrixTuple:
    n = _check_header(doc, "tuple")
    mats = _complex_numbers(doc.get("matrices"), (n, n, n), "matrices")
    try:
        return MatrixTuple(mats, tol)
    except (ValueError, MixdiscError) as exc:
        raise CliInputError(f"invalid tuple: {exc}") from exc


def doc_to_block(doc: dict, tol: Tolerances) -> pascal.BlockMatrix:
    n = _check_header(doc, "block")
    blocks = _complex_numbers(doc.get("blocks"), (n, n, n, n), "blocks")
    try:
        return pascal.BlockMatrix(blocks, tol)
    except MixdiscError as exc:  # NotHermitian: the shape and entries are checked
        raise CliInputError(f"invalid block matrix: {exc}") from exc


def doc_to_pencil(doc: dict, tol: Tolerances) -> hyperbolic.HyperbolicPencil:
    n = _check_header(doc, "pencil")
    m = _positive_int(doc, "m")
    mats = _complex_numbers(doc.get("matrices"), (m, n, n), "matrices")
    e = _numbers(doc.get("e"), (m,), "e")
    try:
        return hyperbolic.HyperbolicPencil(mats, e, tol)
    except (ValueError, MixdiscError) as exc:
        raise CliInputError(f"invalid pencil: {exc}") from exc


def read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), text.encode("utf-8")
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise CliInputError(f"{path}: malformed JSON: {exc}") from exc


@contextlib.contextmanager
def _open_for_writing(path: str, newline: str | None = None):
    """``path`` open for writing text; an OSError, on opening or writing, is
    a ``CliInputError``, as in ``read_json``."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def digest_of(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def params_digest(**params) -> str:
    return digest_of(json.dumps(params, sort_keys=True).encode("utf-8"))


def _require_ranges(seed: int, **counts: int) -> None:
    """Integer arguments that count something (a dimension, trials, samples)
    must be >= 1, and a seed >= 0 (numpy seeds no generator from a negative)."""
    for name, v in counts.items():
        if v < 1:
            raise CliInputError(f"{name} must be >= 1, got {v}")
    if seed < 0:
        raise CliInputError(f"seed must be >= 0, got {seed}")


def _tol_from_args(args) -> Tolerances:
    """The tolerances of the command-line flags given, the defaults for the
    rest; nothing else sets them."""
    values = {f: getattr(args, f) for f in _TOL_FIELDS if hasattr(args, f)}
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands: each returns what ``main`` puts into the one run report

class _Report(NamedTuple):
    results: dict
    digest: str
    seed: int | None = None
    breach: str | None = None  # raised as InvariantBreach once the report is out


def _cmd_eval(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    results = {"D": _ALGORITHMS[args.algorithm](t), "algorithm": args.algorithm}
    if args.cross_check:
        values = {args.algorithm: results["D"]}
        for name, f in _ALGORITHMS.items():
            if name in values:
                continue
            try:
                values[name] = f(t)
            except DimensionTooLarge:  # every evaluator gates before any work
                continue
        spread = max(values.values()) - min(values.values())
        results["cross_check"] = {"values": values, "max_deviation": spread}
    return _Report(results, digest_of(payload))


def _cmd_capacity(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    res = _capacity(doc_to_tuple(doc, tol), tol)
    return _Report(_encode(res), digest_of(payload))


def _cmd_scale(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    res = scale_to_doubly_stochastic(t, tol)
    cap = capacity_via_scaling(t, tol)  # reads the scaling just kept on t
    return _Report({**_encode(res), "capacity_via_scaling": cap}, digest_of(payload))


def _cmd_decompose(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    res = structure.decompose(doc_to_tuple(doc, tol), tol)
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
    return _Report(results, digest_of(payload))


def _cmd_check_ds(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    rep = check_doubly_stochastic(doc_to_tuple(doc, tol), tol)
    return _Report(_encode(rep), digest_of(payload))


def _cmd_bapat_search(args, tol: Tolerances) -> _Report:
    _require_ranges(args.seed, n=args.n, trials=args.trials)
    record = extremal.minimize_search(args.n, args.trials, args.seed, tol)
    digest = params_digest(n=args.n, trials=args.trials, seed=args.seed)
    csv_path = f"bapat-search-{digest[:16]}.csv"
    with _open_for_writing(csv_path, newline="") as fh:
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
        "stop_reasons": record.stop_reasons,
        "csv": csv_path,
    }
    breach = None
    if record.below_bound:
        breach = f"search value {record.best_value!r} fell below the proven bound"
    return _Report(results, digest, args.seed, breach)


def _cmd_genaf(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    t = doc_to_tuple(doc, tol)
    cdoc, cpayload = read_json(args.combination_file)
    if not isinstance(cdoc, dict):
        raise CliInputError("combination document must be a JSON object")
    weights = _numbers(cdoc.get("weights"), (None,), "weights")
    _numbers(cdoc.get("vectors"), (len(weights), t.n), "vectors")
    _numbers(cdoc.get("target"), (t.n,), "target")
    try:
        # The weight vectors and the target pass on as parsed: they must be
        # JSON integers.
        comb = genaf.ConvexCombination.build(weights, cdoc["vectors"], cdoc["target"], t.n)
    except MixdiscError as exc:
        raise CliInputError(f"invalid combination: {exc}") from exc
    rep = genaf.check_theorem52(t, comb, tol)
    breach = None
    # "stalled" is the one unconverged stop a returned capacity solve has.
    if not rep.holds and "stalled" not in rep.cap_stop_reasons:
        breach = f"AF slacks {rep.cap_slack!r} and {rep.m_slack!r} fell below the proven bound"
    return _Report(_encode(rep), digest_of(payload + cpayload), None, breach)


def _cmd_af_experiment(args, tol: Tolerances) -> _Report:
    res = genaf.af_lower_bound_experiment(args.n)
    results = {**_encode(res), "log_deficit_over_n": res.log_deficit / args.n}
    return _Report(results, params_digest(n=args.n))


def _cmd_qp(args, tol: Tolerances) -> _Report:
    doc, payload = read_json(args.file)
    bm = doc_to_block(doc, tol)
    results = {}
    if args.method in ("block", "both"):
        results["qp_block"] = pascal.qp_block(bm)
    if args.method in ("tensor", "both"):
        results["qp_tensor"] = pascal.qp_tensor(bm)
    results["block_ds"] = _encode(pascal.check_block_ds(bm, tol))
    return _Report(results, digest_of(payload))


def _cmd_hyp(args, tol: Tolerances) -> _Report:
    if args.op == "conjecture":
        _require_ranges(args.seed, n=args.n, samples=args.samples)
        rep = hyperbolic.conjecture_experiment(args.n, args.samples, args.seed, tol)
        digest = params_digest(op="conjecture", n=args.n, samples=args.samples, seed=args.seed)
        breach = None
        if rep.violations:
            breach = f"{len(rep.violations)} conjecture counterexample candidates"
        return _Report(_encode(rep), digest, args.seed, breach)
    if args.file is None:
        raise CliInputError("hyp needs a pencil document file for this --op")
    doc, payload = read_json(args.file)
    pencil = doc_to_pencil(doc, tol)
    if args.op in ("roots", "trace"):
        x = _numbers(doc.get("x"), (pencil.m,), "x")
    else:
        xs = list(_numbers(doc.get("X"), (pencil.degree, pencil.m), "X"))
    if args.op == "roots":
        r = hyperbolic.roots(pencil, x)
        results = {"roots": list(map(float, r.lam)), "residual": r.residual}
    elif args.op == "trace":
        results = {"trace_e": hyperbolic.trace_e(pencil, x)}
    elif args.op == "mixed-value":
        results = {"mixed_value": hyperbolic.mixed_value(pencil, xs)}
    else:  # check-hd
        results = _encode(hyperbolic.check_hd_membership(pencil, xs, tol))
    return _Report(results, digest_of(payload))


def _cmd_gen_random(args, tol: Tolerances) -> None:
    # Prints the bare document (sorted keys), not a report, so it pipes into
    # the other commands.
    _require_ranges(args.seed, n=args.n)
    if args.kind == "psd":
        # One Wishart tuple from one generator, validated at the default tolerance.
        doc = tuple_to_doc(MatrixTuple(_wishart((args.n,) * 3, args.seed)))
    elif args.kind == "ds":
        doc = tuple_to_doc(extremal.random_ds_tuple(args.n, args.seed, tol))
    elif args.kind == "block-ds":
        doc = block_to_doc(pascal.sample_block_ds(args.n, args.seed, tol))
    else:  # separable: the draw alone, without the witness the document omits
        doc = block_to_doc(pascal._separable_draw(args.n, args.seed, tol)[0].rho)
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with _open_for_writing(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


class _Parser(argparse.ArgumentParser):
    """A usage error is a ``CliInputError`` (exit 1), not argparse's exit 2;
    the subcommands' parsers are of this class too."""

    def error(self, message):
        raise CliInputError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    # One parent holds the tolerance flags for the root parser and every
    # subcommand, so they work before or after the subcommand; the SUPPRESS
    # default keeps a flag absent on one side from clobbering the other.
    tol_flags = argparse.ArgumentParser(add_help=False)
    for f in _TOL_FIELDS:
        tol_flags.add_argument(
            f"--{f.replace('_', '-')}", type=float, default=argparse.SUPPRESS, dest=f,
            help=f"override {f}",
        )
    parser = _Parser(prog="mixdisc", description="Mixed discriminant toolkit", parents=[tol_flags])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, *positionals):
        p = sub.add_parser(name, parents=[tol_flags], help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    p = command("eval", _cmd_eval, "mixed discriminant of a tuple document", "file")
    p.add_argument("--algorithm", choices=("polarized", "sigma-det"), default="polarized")
    p.add_argument("--cross-check", action="store_true")

    command("capacity", _cmd_capacity, "capacity by convex minimization", "file")
    command("scale", _cmd_scale, "operator scaling to doubly stochastic form", "file")
    command("decompose", _cmd_decompose, "indecomposable block decomposition", "file")
    command("check-ds", _cmd_check_ds, "doubly stochastic tuple report", "file")

    p = command("bapat-search", _cmd_bapat_search, "falsification search against n!/n^n")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    command("genaf", _cmd_genaf, "generalized AF inequality slacks", "file", "combination_file")

    p = command("af-experiment", _cmd_af_experiment, "B = I + cyclic shift permanent experiment")
    p.add_argument("n", type=int)

    p = command("qp", _cmd_qp, "4-dimensional Pascal determinant of a block matrix", "file")
    p.add_argument("--method", choices=["block", "tensor", "both"], default="block")

    p = command("hyp", _cmd_hyp, "hyperbolic pencil operations")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--op", choices=["roots", "trace", "mixed-value", "check-hd", "conjecture"], required=True)
    p.add_argument("--n", type=int, default=3, help="dimension for --op conjecture")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = command("gen-random", _cmd_gen_random, "emit a random document of the given kind")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["psd", "ds", "block-ds", "separable"], default="psd")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    t0 = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        tol = _tol_from_args(args)
        report = args.fn(args, tol)
        if report is not None:
            print(json.dumps({
                "command": args.command,
                "inputs_digest": report.digest,
                "results": report.results,
                "tolerances": {f: getattr(tol, f) for f in _TOL_FIELDS},
                "seed": report.seed,
                "wall_time": time.monotonic() - t0,
            }, sort_keys=True))
            if report.breach:
                raise InvariantBreach(report.breach)
        return 0
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
        label = "INVARIANT BREACH" if isinstance(exc, InvariantBreach) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
