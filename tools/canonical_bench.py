#!/usr/bin/env python3
"""Host cost of the canonical benches and the tier-1 test run.

    tools/canonical_bench.py [--build DIR] [--reps N] [--out PATH]

Runs each canonical command N times (default 3) from a CMake build of this
repository (default ./build) and writes BENCH_canonical.json with, per
command, the fastest repetition's wall, user and sys seconds and peak RSS.
The commands are bench_btree, bench_hier, bench_ctrl, bench_scaling at
--threads=1 and --threads=4, bench_solver, and `ctest -j4` (the tier-1
suite).  The ledger also records nproc and the commit of the source tree
the build was configured from ("unknown" outside a git checkout; "dirty"
when tracked files differ from it), plus "tree": the git tree hash of that
source tree with every change added, untracked files included, and the
ledger file itself left out (git write-tree over a temporary index; the
real index is left alone).  The ledger cannot hash a tree that holds its
own hash, so "tree" names the committed tree minus the ledger: when the
ledger is the last file written before a commit, this reproduces it

    GIT_INDEX_FILE=/tmp/i git read-tree COMMIT
    GIT_INDEX_FILE=/tmp/i git rm -q --cached BENCH_canonical.json
    GIT_INDEX_FILE=/tmp/i git write-tree

User, sys and peak RSS come from the rusage that wait4() returns for the
child, which covers the child and every descendant it waited for (ctest's
test processes included).  That is the delta the child adds to
getrusage(RUSAGE_CHILDREN), with peak RSS taken per run rather than as the
running maximum RUSAGE_CHILDREN keeps.  Linux carries a process's peak RSS
across exec, so no child of this script reads below the script's own RSS
at spawn time; the ledger records that floor as `rss_floor_mib` (the peak
RSS of `true`), and a reading at the floor means "at most this".

The fastest repetition is the one with the least wall time: other tenants
of a shared host only ever slow a run down, so the fastest run is the
steadiest reading (perfbench/run.py uses the same rule).  Stdout and
stderr of the runs are discarded.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, command relative to the build directory)
RUNS = [
    ("bench_btree", ["bench/bench_btree"]),
    ("bench_hier", ["bench/bench_hier"]),
    ("bench_ctrl", ["bench/bench_ctrl"]),
    ("bench_scaling_threads1", ["bench/bench_scaling", "--threads=1"]),
    ("bench_scaling_threads4", ["bench/bench_scaling", "--threads=4"]),
    ("bench_solver", ["bench/bench_solver"]),
    ("ctest_j4", ["ctest", "-j4"]),
]


def run_once(cmd, cwd):
    """Runs `cmd` once; returns its wall/user/sys seconds and peak RSS."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return {"wall_s": round(wall, 4), "user_s": round(usage.ru_utime, 4),
            "sys_s": round(usage.ru_stime, 4),
            "peak_rss_mib": round(usage.ru_maxrss / 1024.0, 2)}


def commit(build, ledger):
    """The git commit and tree of the source `build` was configured from."""
    source = ROOT
    with open(os.path.join(build, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                source = line.split("=", 1)[1].strip()

    def git(*args, env=None):
        return subprocess.run(["git", *args], cwd=source, text=True,
                              capture_output=True, env=env).stdout.strip()

    # The working tree's hash, as a commit of everything would record it,
    # without the ledger.
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        git("rm", "-q", "--cached", "--ignore-unmatch", "--",
            os.path.relpath(os.path.abspath(ledger), source), env=env)
        tree = git("write-tree", env=env)
    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain",
                              "--untracked-files=no")),
            "tree": tree or "unknown"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default=os.path.join(ROOT, "build"))
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_canonical.json"))
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    build = os.path.abspath(args.build)

    runs = {}
    for name, cmd in RUNS:
        argv = list(cmd)
        if argv[0].startswith("bench/"):
            argv[0] = os.path.join(build, argv[0])
        try:
            reps = [run_once(argv, build) for _ in range(args.reps)]
        except (OSError, RuntimeError) as err:
            sys.stderr.write("canonical_bench: %s\n" % err)
            return 1
        best = min(reps, key=lambda r: r["wall_s"])
        runs[name] = dict(best, cmd=" ".join(cmd))
        print("%-24s wall %7.3f s  user %7.3f s  sys %6.3f s  rss %8.2f MiB"
              % (name, best["wall_s"], best["user_s"], best["sys_s"],
                 best["peak_rss_mib"]))

    ledger = dict(commit(build, args.out), nproc=len(os.sched_getaffinity(0)),
                  reps=args.reps, rule="fastest repetition by wall_s",
                  rss_floor_mib=run_once(["true"], build)["peak_rss_mib"],
                  runs=runs)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
