#!/usr/bin/env python3
"""Alternating A/B timing of two perfbench binaries on one workload.

    tools/perf_pairs.py OLD_BIN NEW_BIN --workload W \
        --seed S[,S...] --pairs N

Runs N pairs of single repetitions, alternating which binary goes first
(old-new, new-old, ...) so that drift in the host's load hits both sides
alike.  --seed takes one seed or a comma list (e.g. --seed 1,3,7); each
seed gets its own N pairs and its own section of output, so a claim made
on one seed can be checked on another.  Runs, thread counts and output
checks are perfbench/run.py's own.  For each end-to-end metric in
BENCHMARK.json (work_per_s is work / timed_s, as run.py computes it) it
prints each side's median and quartiles, the new/old ratio of the
medians, whether the medians differ by more than the old side's
interquartile range, how many pairs the new binary won, and whether the
new median is worse than the old one by more than the metric's bound.
For host times and rates it also prints each side's fastest repetition
(least time, highest rate) and their ratio: perfbench/run.py reports and
gates that statistic, which moves far less with the shared host's load
than the median does.  It also checks that every run of both binaries
printed the same model.digest, i.e. that the two builds simulate the
same thing.  Each metric ends with a one-line verdict under the gain
rule: the new binary won at least 9 in 10 pairs (ties count for neither
side) and the medians differ by more than the old side's interquartile
range.

Exit status: 0 when the digests all match, 1 on a digest mismatch or a
failed output check at any seed, 2 when a run cannot be started or parsed.

Build the two binaries from two checkouts, e.g.
    cmake -S OLD/perfbench -B OLD_BUILD && cmake --build OLD_BUILD
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
from run import (WORKLOADS, default_threads, fastest, rep_correct,  # noqa: E402
                 run_rep)


def metric_value(rec, name):
    if name == "work_per_s":
        return rec["work"] / rec["timed_s"]
    return rec[name]


def parse_seeds(text):
    """'1' or '1,3,7' -> [1] or [1, 3, 7]; raises ValueError otherwise."""
    seeds = [int(part) for part in text.split(",")]
    if any(seed < 0 for seed in seeds):
        raise ValueError("negative seed")
    return seeds


def verdict(wins, pairs, beyond_iqr, better):
    """The gain rule as one line: >= 9/10 pairs won and |diff| > old IQR."""
    won_enough = wins * 10 >= 9 * pairs
    if won_enough and beyond_iqr and better:
        return "gain (won %d/%d >= 9/10, |diff| > old IQR)" % (wins, pairs)
    reasons = []
    if not better:
        reasons.append("new median not better")
    if not won_enough:
        reasons.append("won %d/%d < 9/10" % (wins, pairs))
    if not beyond_iqr:
        reasons.append("|diff| <= old IQR")
    return "no gain (%s)" % ", ".join(reasons)


def run_seed(args, seed, threads, end_to_end):
    """Runs and reports the pairs at one seed; returns the exit status."""
    runs = {"old": [], "new": []}
    bins = {"old": args.old_bin, "new": args.new_bin}
    for i in range(args.pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            runs[side].append(run_rep(bins[side], args.workload, seed,
                                      threads, 0))

    print("== %s seed=%d threads=%d pairs=%d ==" % (
        args.workload, seed, threads, args.pairs))
    for spec in end_to_end:
        metric, higher_better = spec["name"], spec["better"] == "higher"
        old = [metric_value(r, metric) for r in runs["old"]]
        new = [metric_value(r, metric) for r in runs["new"]]
        oq = statistics.quantiles(old, n=4, method="inclusive")
        nq = statistics.quantiles(new, n=4, method="inclusive")
        wins = sum((n > o) if higher_better else (n < o)
                   for o, n in zip(old, new))
        ratio = nq[1] / oq[1]
        worse = (1 - ratio) if higher_better else (ratio - 1)
        beyond_iqr = abs(nq[1] - oq[1]) > oq[2] - oq[0]
        print("  %-12s old median %.6g [q1 %.6g, q3 %.6g]" % (
            metric, oq[1], oq[0], oq[2]))
        print("  %-12s new median %.6g [q1 %.6g, q3 %.6g]" % (
            "", nq[1], nq[0], nq[2]))
        print("  %-12s new/old %.3fx; |diff| %s old IQR; new won %d/%d; "
              "%s bound %g" % (
                  "", ratio, ">" if beyond_iqr else "<=",
                  wins, args.pairs,
                  "WORSE beyond" if worse > spec["bound"] else "within",
                  spec["bound"]))
        if spec["unit"] in ("s", "1/s"):
            ofast = fastest(old, lambda v: v, higher_better)
            nfast = fastest(new, lambda v: v, higher_better)
            print("  %-12s fastest old %.6g, new %.6g; new/old %.3fx" % (
                "", ofast, nfast, nfast / ofast))
        print("  %-12s verdict: %s" % (
            "", verdict(wins, args.pairs, beyond_iqr, worse < 0)))

    digests = sorted({r["digest"] for side in runs.values() for r in side})
    all_ok = all(rep_correct(r) for side in runs.values() for r in side)
    print("  model.digest %s (%s)" % (
        " ".join(digests),
        "same on every run" if len(digests) == 1 else "MISMATCH"))
    if not all_ok:
        print("  CHECK FAILED: a run reported failed ops or check failures")
    return 0 if len(digests) == 1 and all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_bin")
    parser.add_argument("new_bin")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True,
                        help="one seed or a comma list, e.g. 1,3,7")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    try:
        seeds = parse_seeds(args.seed)
    except ValueError:
        parser.error("--seed must be a whole number or a comma list of "
                     "them, not %r" % args.seed)
    threads = default_threads(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    status = 0
    for seed in seeds:
        try:
            status = max(status, run_seed(args, seed, threads, end_to_end))
        except (OSError, ValueError, KeyError, RuntimeError,
                subprocess.SubprocessError) as err:
            sys.stderr.write("perf_pairs: %s\n" % err)
            return 2
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
