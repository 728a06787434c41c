"""Set-up cost of one workload in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py <checkout root> <workload>``.  Times
``import mixdisc`` (numpy included) and one warm-up call of each public
function the workload uses; the warm-up inputs are generated in between and
not timed.  Then times the host probe (median of five) right away, so the
caller can scale the set-up time to the reference host speed.  Prints one
JSON line.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

root, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))

import mixdisc  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, os.path.join(root, "perfbench"))

import workloads  # noqa: E402

inputs = workloads.warm_up_inputs(workload)
t2 = time.perf_counter()
workloads.warm_up(workload, inputs)
t3 = time.perf_counter()

import statistics  # noqa: E402

import hostprobe  # noqa: E402

probe = hostprobe.HostProbe()
probe_s = statistics.median(probe.sample() for _ in range(5))
print(json.dumps({"import_s": t1 - t0, "warm_up_s": t3 - t2, "probe_s": probe_s}))
