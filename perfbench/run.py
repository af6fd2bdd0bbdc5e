#!/usr/bin/env python3
"""Benchmark of the cunsec library through its public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload figure_points --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): figure_points, mixed_alpha_s2, validate.  The
library runs single-threaded in this process: the BLAS thread counts are
pinned to 1 and SECRECY_WORKERS is unset before numpy is imported.

A run with --trace 0
  1. times set-up (import cunsec, then build the workload's configs) in a
     fresh process, SETUP_REPEATS times, and reports the median;
  2. runs the workload's operations in a closed loop, untraced, timing
     each, in whole passes over the operations until --seconds have passed
     (at least one pass, so a run can measure for longer);
  3. checks every output, untimed, and prints the end-to-end metrics.

A run with --trace 1 makes one traced pass in this process and another in a
fresh process.  It prints the per-layer metrics of the first, and fails
unless both made identical machine-independent counts; both passes run
cold, so a cache that outlives a call changes both alike.  The tracing
overhead it reports is the number of wrapped calls times the cost of one
wrapper, measured in this process.

reference.json is a fixture, the metric values of the library as it stood
when this benchmark was added: of every figure_points and validate operation
(their inputs come from fixed shifts and configs, whatever the seed) and of
the mixed_alpha_s2 operations of seed 0.  secrecy.value_drift is measured
against it; the benchmark only reads it.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  "correct" is false when an
operation raised or returned a metric value that its Monte-Carlo check
rejects.  "failed" counts the operations that raised, returned such a value,
or returned a validation report whose PASS/FAIL disagrees with its own
numbers.  Nothing is printed as a result when the library is missing or a
self-check fails; the exit code is then non-zero.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SECRECY_WORKERS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import cunsec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5
# Percentiles considered for the latency tail; the highest one with at least
# ten samples beyond it is reported.
TAIL_PERCENTILES = (99, 95, 90, 80, 70, 60, 50)

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""

# One traced pass in a fresh process; prints its machine-independent counts.
_COUNTS_CHILD = """
import json, sys
import workloads
from tracer import Tracer
with Tracer() as tracer:
    for op in workloads.build(sys.argv[1], int(sys.argv[2])):
        try:
            workloads.execute(op)
        except Exception:
            pass
print(json.dumps(tracer.counts()))
"""


@dataclass
class Record:
    op: object
    seconds: float
    output: object = None
    error: str = ""

    @property
    def values(self):
        return workloads.values_of(self.op, self.output)


def run_pass(ops):
    """Closed loop over the operations: each starts when the previous one
    returns.  Returns the records and the wall time."""
    records = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            output, error = workloads.execute(op), ""
        except Exception as exc:  # a raising operation is a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(op, time.perf_counter() - t0, output, error))
    return records, time.perf_counter() - start


def run_passes(ops, seconds):
    """Whole passes until `seconds` have passed, at least one."""
    records, wall = [], 0.0
    while not records or wall < seconds:
        more, dt = run_pass(ops)
        records += more
        wall += dt
    return records, wall


@dataclass
class Verdict:
    correct: bool = True
    failed: int = 0
    report_fail: int = 0


def judge(records, checker):
    """Untimed correctness checks of every record."""
    v = Verdict()
    for r in records:
        if r.error:
            v.correct = False
            v.failed += 1
            print(f"FAIL {r.op.key}: raised {r.error}")
            continue
        values_ok = checker.values_ok(r.op, r.values)
        verdict_ok = r.op.metric != "validate" or checker.verdict_ok(r.op, r.output)
        v.correct &= values_ok
        v.report_fail += not verdict_ok
        if not (values_ok and verdict_ok):
            v.failed += 1
            print(f"FAIL {r.op.key}: "
                  + ("value rejected by Monte Carlo" if not values_ok
                     else "report verdict disagrees with its own numbers"))
    return v


def run_child(code, workload, seed, timeout):
    """Run `code` in a fresh Python process with the library on its path and
    return the last line of its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", code, workload, str(seed)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=timeout, check=True)
    return out.stdout.strip().splitlines()[-1]


def measure_setup(workload, seed):
    """Median time to import cunsec and build the workload's configs in a
    fresh process."""
    return statistics.median(
        float(run_child(_SETUP_CHILD, workload, seed, 120))
        for _ in range(SETUP_REPEATS))


def tail(latencies):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(latencies, n=100)[p - 1]
    return None


def environment(workload, seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cunsec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_reference(workload):
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def value_drift(workload, records):
    """(max |value - stored seed-commit value|, operations compared)."""
    ref = load_reference(workload).get("values", {})
    drift, n = 0.0, 0
    for r in records:
        if r.op.key in ref and not r.error:
            n += 1
            for m, v in r.values.items():
                drift = max(drift, abs(v - ref[r.op.key][m]))
    return drift, n


def untraced_run(args, ops, checker):
    setup_s = measure_setup(args.workload, args.seed)
    records, wall = run_passes(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = judge(records, checker)
    latencies = [r.seconds for r in records]
    completed = sum(not r.error for r in records)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "ops_per_s": completed / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    t = tail(latencies)
    print(f"ops {len(records)} in {wall:.3f} s wall; "
          + (f"op_tail_s p{t[0]} = {t[1]:.6f} s" if t else
             "op_tail_s n/a (fewer than 20 samples)")
          + f"; fail_frac = {verdict.failed / len(records):.4f}")
    return records, verdict, metrics


def traced_run(args, ops, checker):
    with Tracer() as tracer:
        traced, wall = run_pass(ops)
    counts = tracer.counts()
    fresh = json.loads(run_child(_COUNTS_CHILD, args.workload, args.seed, 170))
    if counts != fresh:
        diff = {k: (counts.get(k), fresh.get(k))
                for k in sorted(set(counts) | set(fresh))
                if counts.get(k) != fresh.get(k)}
        sys.exit(f"count determinism check failed, same seed gave {diff}")
    verdict = judge(traced, checker)
    layer = tracer.metrics()
    layer["cli.run_validate.report_fail"] = verdict.report_fail
    layer["secrecy.value_drift"], layer["secrecy.value_drift_ops"] = \
        value_drift(args.workload, traced)
    wrapper_s = Tracer.wrapper_cost()
    layer["trace.overhead_s"] = tracer.wrapped_calls() * wrapper_s
    print(f"traced pass {wall:.3f} s; {tracer.wrapped_calls()} wrapped calls "
          f"at {wrapper_s * 1e6:.3f} us; {sum(counts.values())} counts "
          f"identical in a fresh traced process")
    return traced, verdict, layer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if os.path.dirname(os.path.dirname(os.path.abspath(cunsec.__file__))) != SRC:
        sys.exit(f"cunsec was imported from {cunsec.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"pick from {workloads.WORKLOADS}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if not args.trace else "per_layer"]

    print("env " + json.dumps(environment(args.workload, args.seed),
                              sort_keys=True))
    ops = workloads.build(args.workload, args.seed)
    checker = workloads.Checker()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if args.trace:
        records, verdict, values = traced_run(args, ops, checker)
        routes = {k for k in values if k.startswith("secrecy.route.")}
        declared_names = {m["name"] for m in declared}
        values["secrecy.route.other"] = sum(
            values[k] for k in routes - declared_names)
    else:
        records, verdict, values = untraced_run(args, ops, checker)
    print(f"process cpu {time.process_time() - cpu0:.3f} s over "
          f"{time.perf_counter() - wall0:.3f} s wall")

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"{m['name']:<44} {metrics[m['name']]['value']!r} {m['unit']}")
    print(json.dumps({"correct": verdict.correct, "attempted": len(records),
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
