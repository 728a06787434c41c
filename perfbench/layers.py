"""Per-layer metrics computed from a finished trace.

``TABLE`` records, for each group of per-layer metrics, which end-to-end
metric it should move and on which workload, written down before measuring.
``REPORTED`` is the subset printed on the result line of a traced run: the
metrics that are defined on all three workloads.  Everything else (per-size
latencies, ratios, per-command times) is in the run's full report.
"""

from __future__ import annotations

import numpy as np

from tracer import MODULES, NONCONVERGED, OK

TABLE = [
    {
        "metrics": [
            "discriminant.det_matrices", "discriminant.det_flops_computed",
            "discriminant.det_bytes_computed", "discriminant.eval_polarized.n14.ms",
            "discriminant.eval_polarized.n16.ms", "discriminant.eval_polarized.n18.ms",
            "discriminant.permanent.n16.ms", "discriminant.gradient.n8.ms",
            "genaf.af_lower_bound_experiment.n16.ms",
        ],
        "should_move": "items_per_s, item_tail_ms, correct_digits and peak_rss_mb on gate_evals",
        "little_or_no_effect": "small_tuples (small share)",
    },
    {
        "metrics": [
            "discriminant.MatrixTuple.calls", "discriminant.MatrixTuple.s",
            "core.as_hermitian.calls", "core.spawn_seeds.calls", "core.spawn_seeds.s",
            "core.eigh_calls", "extremal.random_ds_tuple.calls", "extremal.random_ds_tuple.s",
            "extremal.draws_per_tuple",
        ],
        "should_move": "items_per_s and item_p50_ms on small_tuples and cli_experiments",
        "little_or_no_effect": "gate_evals",
    },
    {
        "metrics": [
            "capacity.capacity.calls", "capacity.descent_iters", "capacity.objective_evals",
            "capacity.objective_evals_per_iter", "capacity.scale.calls", "capacity.scaling_iters",
            "capacity.nonconverged", "structure.is_indecomposable.calls", "structure.decompose.s",
            "genaf.check_theorem52.s",
        ],
        "should_move": "items_per_s, item_tail_ms and fail_frac on small_tuples",
        "little_or_no_effect": "gate_evals (none) and cli_experiments (small)",
    },
    {
        "metrics": ["extremal.minimize_search.s", "extremal.descent_evals"],
        "should_move": "item_tail_ms and items_per_s on cli_experiments",
        "little_or_no_effect": "gate_evals",
    },
    {
        "metrics": [
            "pascal.sample_separable_ds.s", "pascal.sampler_accept_ratio", "pascal.qp_block.s",
            "pascal.qp_tensor.s", "pascal.det_matrices",
        ],
        "should_move": "items_per_s and item_p50_ms on cli_experiments",
        "little_or_no_effect": "others (not loaded)",
    },
    {
        "metrics": ["hyperbolic.mixed_value.n12.ms", "hyperbolic.det_calls"],
        "should_move": "items_per_s on gate_evals",
        "little_or_no_effect": "",
    },
    {
        "metrics": ["hyperbolic.roots.calls", "hyperbolic.accept_ratio"],
        "should_move": "items_per_s on cli_experiments",
        "little_or_no_effect": "",
    },
    {
        "metrics": [
            "cli.self_s", "cli.main.calls", "cli.qp.ms", "cli.gen-random.ms",
            "cli.bapat-search.ms", "cli.hyp.ms",
        ],
        "should_move": "item_p50_ms on cli_experiments",
        "little_or_no_effect": "small_tuples and gate_evals (not loaded)",
    },
    {
        "metrics": [f"{m}.{k}" for m in MODULES for k in ("self_s", "calls")],
        "should_move": "the shares each workload's end-to-end time splits into",
        "little_or_no_effect": "",
    },
    {
        "metrics": ["trace.overhead_frac"],
        "should_move": "traced minus untraced items_per_s, per workload",
        "little_or_no_effect": "",
    },
]

UNITS = {"calls": "count", "s": "s", "ms": "ms", "self_s": "s"}

REPORTED = {
    "core.self_s": "s",
    "discriminant.self_s": "s",
    "extremal.self_s": "s",
    "discriminant.MatrixTuple.s": "s",
    **{f"{m}.calls": "count" for m in MODULES},
    "discriminant.det_matrices": "count",
    "discriminant.det_flops_computed": "flop",
    "discriminant.det_bytes_computed": "B",
    "discriminant.MatrixTuple.calls": "count",
    "core.as_hermitian.calls": "count",
    "core.spawn_seeds.calls": "count",
    "core.eigh_calls": "count",
    "extremal.random_ds_tuple.calls": "count",
    "extremal.descent_evals": "count",
    "capacity.capacity.calls": "count",
    "capacity.descent_iters": "count",
    "capacity.objective_evals": "count",
    "capacity.scale.calls": "count",
    "capacity.scaling_iters": "count",
    "capacity.nonconverged": "count",
    "structure.is_indecomposable.calls": "count",
    "pascal.det_matrices": "count",
    "hyperbolic.det_calls": "count",
    "hyperbolic.roots.calls": "count",
    "cli.main.calls": "count",
    "trace.overhead_frac": "fraction",
}


def _unit(name: str) -> str:
    if name in REPORTED:
        return REPORTED[name]
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ratio") or last.endswith("frac") or last.endswith("per_iter") or last.endswith("per_tuple"):
        return "ratio"
    return UNITS.get(last, "count")


def _ancestors(parent: np.ndarray):
    """Yield, level by level, each span's ancestor index (-1 once past the root)."""
    cur = parent.copy()
    while (cur >= 0).any():
        yield cur
        cur = np.where(cur >= 0, parent[np.maximum(cur, 0)], -1)


def _depths(parent: np.ndarray) -> np.ndarray:
    depth = np.zeros(len(parent), dtype=np.int64)
    for anc in _ancestors(parent):
        depth += anc >= 0
    return depth


def compute(tracer, overhead_frac: float) -> tuple[dict, dict]:
    """(metrics {name: {"value", "unit"}}, details) for one traced run."""
    c = tracer.arrays()
    names = np.array(tracer.names + [""], dtype=object)
    nid = c["name_id"]
    span_name = names[nid] if len(nid) else np.array([], dtype=object)
    module = np.array([n.split(".", 1)[0] for n in tracer.names] + [""], dtype=object)[nid] if len(nid) else np.array([], dtype=object)
    tags = np.array(tracer.tag, dtype=object)
    parent = c["parent"].astype(np.int64)
    dur, self_t = c["duration"], c["self"]
    out: dict = {}

    def is_(name):
        return span_name == name

    def total(name):
        return float(dur[is_(name)].sum())

    def median_ms(name, tag):
        idx = [i for i in np.flatnonzero(is_(name)) if tags[i] == tag]
        return float(np.median(dur[idx]) * 1e3) if idx else None

    def ratio(num, den):
        return num / den if den else None

    for m in MODULES:
        sel = module == m
        out[f"{m}.calls"] = int(sel.sum())
        out[f"{m}.self_s"] = float(self_t[sel].sum())
    disc = module == "discriminant"
    out["discriminant.det_matrices"] = int(c["dets"][disc].sum())
    out["discriminant.det_flops_computed"] = float(c["det_flops"][disc].sum())
    out["discriminant.det_bytes_computed"] = float(c["det_bytes"][disc].sum())
    for n in (14, 16, 18):
        out[f"discriminant.eval_polarized.n{n}.ms"] = median_ms("discriminant.eval_polarized", n)
    out["discriminant.permanent.n16.ms"] = median_ms("discriminant.permanent", 16)
    out["discriminant.gradient.n8.ms"] = median_ms("discriminant.gradient", 8)
    out["genaf.af_lower_bound_experiment.n16.ms"] = median_ms("genaf.af_lower_bound_experiment", 16)

    out["discriminant.MatrixTuple.calls"] = int(is_("discriminant.MatrixTuple").sum())
    out["discriminant.MatrixTuple.s"] = total("discriminant.MatrixTuple")
    out["core.as_hermitian.calls"] = int(is_("core.as_hermitian").sum())
    out["core.spawn_seeds.calls"] = int(is_("core.spawn_seeds").sum())
    out["core.spawn_seeds.s"] = total("core.spawn_seeds")
    out["core.eigh_calls"] = int(c["eighs"].sum()) + tracer.numpy_outside["eigh"]
    rds = is_("extremal.random_ds_tuple")
    out["extremal.random_ds_tuple.calls"] = int(rds.sum())
    out["extremal.random_ds_tuple.s"] = total("extremal.random_ds_tuple")
    scale = is_("capacity.scale_to_doubly_stochastic")
    has_parent = parent >= 0
    draws = int((scale & has_parent & np.isin(parent, np.flatnonzero(rds))).sum())
    out["extremal.draws_per_tuple"] = ratio(draws, int(rds.sum()))

    cap = is_("capacity.capacity")
    out["capacity.capacity.calls"] = int(cap.sum())
    out["capacity.descent_iters"] = int(c["iters"][cap].sum())
    out["capacity.objective_evals"] = int(c["slogdets"][cap].sum())
    out["capacity.objective_evals_per_iter"] = ratio(out["capacity.objective_evals"], out["capacity.descent_iters"])
    out["capacity.scale.calls"] = int(scale.sum())
    out["capacity.scaling_iters"] = int(c["iters"][scale].sum())
    out["capacity.nonconverged"] = int(((cap | scale) & (c["outcome"] == NONCONVERGED)).sum())
    out["structure.is_indecomposable.calls"] = int(is_("structure.is_indecomposable").sum())
    out["structure.decompose.s"] = total("structure.decompose")
    out["genaf.check_theorem52.s"] = total("genaf.check_theorem52")

    # Spans below a minimize_search span: flags propagate from parent to child.
    search = is_("extremal.minimize_search")
    below = np.zeros(len(nid), dtype=bool)
    for anc in _ancestors(parent):
        below |= (anc >= 0) & search[np.maximum(anc, 0)]
    out["extremal.minimize_search.s"] = total("extremal.minimize_search")
    out["extremal.descent_evals"] = int((is_("discriminant.eval_polarized") & below).sum())

    samplers = is_("pascal.sample_separable_ds") | is_("pascal.sample_block_ds")
    out["pascal.sample_separable_ds.s"] = total("pascal.sample_separable_ds")
    out["pascal.sampler_accept_ratio"] = ratio(int((samplers & (c["outcome"] == OK)).sum()), int(samplers.sum()))
    out["pascal.qp_block.s"] = total("pascal.qp_block")
    out["pascal.qp_tensor.s"] = total("pascal.qp_tensor")
    out["pascal.det_matrices"] = int(c["dets"][module == "pascal"].sum())

    hyp = module == "hyperbolic"
    out["hyperbolic.mixed_value.n12.ms"] = median_ms("hyperbolic.mixed_value", 12)
    out["hyperbolic.det_calls"] = int(c["dets"][hyp].sum())
    out["hyperbolic.roots.calls"] = int(is_("hyperbolic.roots").sum())
    member = is_("hyperbolic.check_hd_membership")
    out["hyperbolic.accept_ratio"] = ratio(int((member & (c["outcome"] == OK)).sum()), int(member.sum()))

    out["cli.main.calls"] = int(is_("cli.main").sum())
    for cmd in ("qp", "gen-random", "bapat-search", "hyp"):
        out[f"cli.{cmd}.ms"] = median_ms("cli.main", cmd)
    out["trace.overhead_frac"] = overhead_frac

    details = {"det_formula_check": _det_formula_check(c, span_name, tags, parent)}
    details["spans"] = len(nid)
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in out.items()}
    return metrics, details


def _det_formula_check(c, span_name, tags, parent) -> dict:
    """Compare det matrices per span with 2^n - 1 (eval_polarized) and
    n (n^2 + 1) 2^(n-1) + 2^n - 1 (gradient), counting nested spans."""
    incl = c["dets"].astype(np.int64).copy()
    depth = _depths(parent)
    for d in range(int(depth.max()) if len(depth) else 0, 0, -1):
        sel = depth == d
        np.add.at(incl, parent[sel], incl[sel])
    formulas = {
        "discriminant.eval_polarized": lambda n: 2**n - 1,
        "discriminant.gradient": lambda n: n * (n * n + 1) * 2 ** (n - 1) + 2**n - 1,
    }
    report = {}
    for name, formula in formulas.items():
        idx = np.flatnonzero(span_name == name)
        bad = [int(i) for i in idx if incl[i] != formula(int(tags[i]))]
        report[name] = {"checked": len(idx), "mismatched": len(bad)}
        if bad:
            i = bad[0]
            report[name]["first"] = {"n": int(tags[i]), "counted": int(incl[i]), "formula": formula(int(tags[i]))}
    return report
