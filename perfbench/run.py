#!/usr/bin/env python3
"""Repository benchmark: build perfbench, run one workload for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is btree_ops, fluid_local, fluid_bridged, ctrl_hier, or "all" (each in
turn, one result line each).  The script builds perfbench/ with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout, then runs
fresh perfbench processes, one repetition of the seeded workload each,
until S seconds have passed.  Each host time is the fastest repetition's
(see README.md, "Noise"); everything else is the median over repetitions.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, including the tracing
overhead (traced over untraced wall time).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A failed output
check or a simulated result that differs between repetitions makes the
result incorrect and the exit code 1.  A build or run error exits 2 without
a result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("btree_ops", "fluid_local", "fluid_bridged", "ctrl_hier")
REP_TIMEOUT_S = 120
MIN_REPS = 3
# Each workload's unit of work, named as its throughput metric.
THROUGHPUT_NAME = {
    "btree_ops": ("ops_per_s", "ops/s"),
    "fluid_local": ("flows_per_s", "flows/s"),
    "fluid_bridged": ("flows_per_s", "flows/s"),
    "ctrl_hier": ("epochs_per_s", "epochs/s"),
}
# A traced run whose spans leave more than this share of wall time
# unattributed is flagged.
UNATTRIBUTED_FLAG = 0.2


def metric_spec():
    """End-to-end and per-layer metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def default_threads(workload):
    # Only fluid_local has closed rack shards for the solver pool to use.
    if workload == "fluid_local":
        return max(1, min(4, len(os.sched_getaffinity(0))))
    return 1


def run_rep(binary, workload, seed, threads, trace, spans_out=None):
    """Runs one repetition; returns its parsed JSON record."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--threads=%d" % threads, "--trace=%d" % trace]
    if spans_out:
        cmd.append("--spans-out=" + spans_out)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr[-4000:])
        raise RuntimeError("%s exited %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def rep_correct(rec):
    return rec["failed"] == 0 and not rec["check_failures"]


def measure(binary, workload, seed, seconds, trace, threads):
    """Repeats the workload for `seconds`; returns (plain, traced) records."""
    plain, traced = [], []
    spans_out = None
    if trace:
        spans_dir = os.path.join(os.path.dirname(build_dir()), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_out = os.path.join(spans_dir, "%s-%d.tsv" % (workload, seed))
    start = time.monotonic()
    while (time.monotonic() - start < seconds or
           min(len(plain), len(traced) if trace else MIN_REPS) < MIN_REPS):
        plain.append(run_rep(binary, workload, seed, threads, 0))
        if trace:
            traced.append(run_rep(binary, workload, seed, threads, 1,
                                  spans_out))
    return plain, traced


def median(recs, key):
    return statistics.median(key(r) for r in recs)


def fastest(recs, key, higher_is_better=False):
    """The fastest repetition's reading: least time, or highest rate.

    Other tenants of a shared host only ever slow a repetition down, by up
    to half, for seconds or minutes at a time; the median moves with their
    load, the fastest repetition of a run barely does.
    """
    values = [key(r) for r in recs]
    return max(values) if higher_is_better else min(values)


def summarize(workload, seed, trace, threads, plain, traced):
    recs = plain + traced
    digests = sorted({r["digest"] for r in recs})
    failures = sorted({f for r in recs for f in r["check_failures"]})
    correct = all(rep_correct(r) for r in recs) and len(digests) == 1
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    if len(digests) > 1:
        failed += 1
        failures.append("model digest differs between repetitions: " +
                        " ".join(digests))

    name, unit = THROUGHPUT_NAME[workload]
    setup_s = fastest(plain, lambda r: r["setup_s"])
    wall_s = fastest(plain, lambda r: r["wall_s"])
    rate = fastest(plain, lambda r: r["work"] / r["timed_s"], True)
    rss = median(plain, lambda r: r["peak_rss_mib"])
    print("== %s  seed=%d threads=%d reps=%d(+%d traced) ==" %
          (workload, seed, threads, len(plain), len(traced)))
    print("  %-26s %.6g s (median %.6g)" % (
        "setup_s", setup_s, median(plain, lambda r: r["setup_s"])))
    print("  %-26s %.6g s (median %.6g)" % (
        "wall_s", wall_s, median(plain, lambda r: r["wall_s"])))
    print("  %-26s %.6g %s (median %.6g)" % (
        name, rate, unit, median(plain, lambda r: r["work"] / r["timed_s"])))
    print("  %-26s %.6g MiB" % ("peak_rss_mib", rss))
    print("  %-26s %.6g ratio" % ("error_frac", failed / max(1, attempted)))
    for key, value in plain[0]["model"]:
        print("  %-26s %s" % (key, value))
    print("  %-26s %s" % ("model.digest", " ".join(digests)))
    for f in failures:
        print("  CHECK FAILED: " + f)

    end_to_end, per_layer = metric_spec()
    if not trace:
        values = {"setup_s": setup_s, "wall_s": wall_s, "work_per_s": rate,
                  "peak_rss_mib": rss}
        metrics = {key: (values[key], unit_) for key, unit_ in end_to_end}
    else:
        # A workload without a layer reports 0 for its metrics.  Process
        # readings come from the untraced repetitions.
        values = {key: median(traced, lambda r: r["layers"].get(key, 0))
                  for key, _ in per_layer}
        for key in ("user_s", "sys_s", "minflt"):
            values["proc." + key] = median(plain, lambda r: r["proc"][key])
        values["bench.trace_overhead_frac"] = (
            fastest(traced, lambda r: r["wall_s"]) / wall_s - 1)
        metrics = {key: (values[key], unit_) for key, unit_ in per_layer}
        print("  -- per layer (median of traced reps) --")
        for key, unit_ in per_layer:
            print("  %-30s %.6g %s" % (key, values[key], unit_))
        print("  -- host self time by layer, ms (median) --")
        names = sorted({k for r in traced for k in r["breakdown_ms"]})
        for key in names:
            print("  %-30s %.6g" % (
                key, median(traced, lambda r: r["breakdown_ms"].get(key, 0))))
        unattributed = values["bench.unattributed_frac"]
        if unattributed > UNATTRIBUTED_FLAG:
            print("  FLAG: layers account for only %.0f%% of traced wall time"
                  % (100 * (1 - unattributed)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            threads = default_threads(workload)
            plain, traced = measure(binary, workload, args.seed, args.seconds,
                                    args.trace, threads)
            results.append(summarize(workload, args.seed, args.trace,
                                     threads, plain, traced))
            sys.stdout.flush()
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as err:
        log("perfbench: %s" % err)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
