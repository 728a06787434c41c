"""mixdisc benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small_tuples --seed 1 --seconds 20 --trace 0

Workloads: small_tuples, gate_evals, cli_experiments (see workloads.py and
README.md).  One process, one caller, closed loop: the next item starts when
the previous one returns.  BLAS runs on one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the items
untraced and then traced, and prints the per-layer metrics.  The full report
(environment, every metric, the failure list by item) is printed on the line
before the result and written to ``.perfbench/`` in the checkout.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
HERE = os.path.dirname(os.path.abspath(__file__))
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "correct_digits": "digits",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="mixdisc benchmark")
    p.add_argument("--workload", required=True, choices=["small_tuples", "gate_evals", "cli_experiments"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def find_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mixdisc", "__init__.py")):
        raise SystemExit(f"error: no mixdisc sources under {src}; run from the root of a checkout")
    return src


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 items beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - 11)
    return xs[k], 100.0 * (k + 1) / n


def run_items(items, rec) -> tuple[list[float], list[float]]:
    """Run the items in order; the recorder's probe samples the host speed
    between operations.

    Returns each item's program time in seconds, raw and with every
    operation scaled to the probe's reference speed (see hostprobe.py)."""
    raw, ops = [], []
    rec.probe.sample()
    for item in items:
        rec.begin(item.name)
        item.run(rec)
        raw.append(rec.busy)
        ops.append(rec.ops)
    rec.probe.sample()
    scaled = [sum((t1 - t0) * rec.probe.factor(t0, t1) for t0, t1 in item_ops) for item_ops in ops]
    return raw, scaled


def items_per_s(lat: list[float]) -> float:
    """Items completed per second of program time."""
    return len(lat) / sum(lat)


def setup_seconds(root: str, workload: str, workdir: str, count: int) -> list[tuple[float, float]]:
    """(set-up time, host probe time) of ``count`` fresh interpreters, run one
    after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), root, workload],
            cwd=workdir, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["import_s"] + rec["warm_up_s"], rec["probe_s"]))
    return out


def environment(root: str, args) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # numpy without the dict form of show_config
        blas = {"error": repr(exc)}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "one process, one caller, closed loop",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    root = os.getcwd()
    src = find_source(root)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import mixdisc
    import numpy as np

    if os.path.dirname(os.path.abspath(mixdisc.__file__)) != os.path.join(os.path.abspath(src), "mixdisc"):
        raise SystemExit(f"error: imported mixdisc from {mixdisc.__file__}, not from {src}")

    import hostprobe
    import layers
    import tracer
    import workloads

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    report = {"environment": environment(root, args)}
    cwd = os.getcwd()
    try:
        groups = workloads.groups_for(args.workload, args.seconds)
        items = workloads.WORKLOADS[args.workload](args.seed, groups)
        warm_inputs = workloads.warm_up_inputs(args.workload)
        os.chdir(workdir)
        workloads.warm_up(args.workload, warm_inputs)

        report["untraced_bindings_checked"] = tracer.check_untraced()
        rec = workloads.Recorder(hostprobe.HostProbe())
        if args.trace == 0:
            setups = setup_seconds(root, args.workload, workdir, SETUP_RUNS)
        t0 = time.perf_counter()
        raw_lat, lat = run_items(items, rec)
        wall = time.perf_counter() - t0
        tracer.check_untraced()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_value, tail_pct = tail(lat)
        e2e = {
            "items_per_s": items_per_s(lat),
            "item_p50_ms": statistics.median(lat) * 1e3,
            "item_tail_ms": tail_value * 1e3,
            "correct_digits": rec.min_digits,
            "peak_rss_mb": rss_mb,
        }
        raw_tail, _ = tail(raw_lat)
        raw = {
            "items_per_s": items_per_s(raw_lat),
            "item_p50_ms": statistics.median(raw_lat) * 1e3,
            "item_tail_ms": raw_tail * 1e3,
        }
        if args.trace == 0:
            e2e["setup_s"] = statistics.median(t * hostprobe.REF_S / p for t, p in setups)
            raw["setup_s"] = statistics.median(t for t, _ in setups)
            report["setup_samples_s"] = setups
        report["host"] = {
            "probe_ref_s": hostprobe.REF_S,
            "probe_samples": len(rec.probe.durations),
            "probe_median_s": statistics.median(rec.probe.durations),
            "raw_end_to_end": raw,
        }
        report["end_to_end"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        report["fail_frac"] = {"value": rec.failed / rec.attempted, "unit": "fraction"}
        report["item_tail"] = {"percentile": tail_pct, "items": len(lat)}
        report["timed_phase"] = {"groups": groups, "items": len(lat), "wall_s": wall}
        report["item_latency_s"] = {item.name: [x, y] for item, x, y in zip(items, raw_lat, lat)}
        report["attempted"] = rec.attempted
        report["failed"] = rec.failed
        report["failures"] = rec.failures
        report["contract_breaches"] = rec.contract_breaches
        correct = not rec.contract_breaches

        if args.trace == 1:
            trec = workloads.Recorder(hostprobe.HostProbe())
            tr = tracer.Tracer()
            try:
                report["traced_bindings"] = tr.install()
                _, tlat = run_items(items, trec)
            finally:
                tr.restore()
            tracer.check_untraced()
            ips, traced_ips = e2e["items_per_s"], items_per_s(tlat)
            per_layer, details = layers.compute(tr, (ips - traced_ips) / ips)
            report["per_layer"] = per_layer
            report["per_layer_table"] = layers.TABLE
            report["trace_details"] = details
            report["traced_items_per_s"] = traced_ips
            spans = tr.arrays()
            np.savez_compressed(
                os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.npz"),
                names=np.array(tr.names), tag=np.array([str(t) for t in tr.tag]),
                **{k: spans[k] for k in ("name_id", "start", "end", "parent", "self", "outcome", "iters", "dets")},
            )
            correct = correct and not trec.contract_breaches and trec.failed == rec.failed
            metrics = {k: per_layer[k] for k in layers.REPORTED}
            attempted, failed = rec.attempted + trec.attempted, rec.failed + trec.failed
        else:
            metrics = {k: report["end_to_end"][k] for k in E2E_UNITS}
            attempted, failed = rec.attempted, rec.failed
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(report, default=str))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
