#!/bin/sh
# Coverage sweep: the src/ functions that no bench, example or perfbench
# workload executes.  A function only tests reach is a candidate for
# deletion (or for a workload that needs it).
#
# Usage: tools/coverage_sweep.sh SCRATCH_DIR
#
# Builds this tree's benches and examples, and perfbench/, with
# `--coverage -O0` under SCRATCH_DIR (build/ and perfbench/), then runs:
#   * every bench_* once, with every sidecar flag (--trace-out,
#     --metrics-out, --series-out, --slo-out, --postmortem-out);
#   * every example with no arguments;
#   * the four perfbench workloads at seed 1, once with --trace=0 and once
#     with --trace=1; fluid_local at --threads=min(nproc,4) as
#     perfbench/run.py runs it, the others at 1 thread.
# Tests are not run.  It then reads every object's coverage with
# `gcov --json-format` and prints, per src/ file, each function no run
# executed (a function counts as executed when any build's copy of it
# ran).  A src/ file that no run linked writes no .gcda at all; gcov reads
# its .gcno alone, and it is listed as "never linked" with its function
# count.  The total line counts both kinds.  Inline functions that no
# translation unit calls are never emitted, so they do not show.  About
# 5.5 minutes on a shared 4-CPU host (330-347 s measured, build
# included).  Run outputs are left in SCRATCH_DIR/runs/ (a run
# that exits non-zero is reported on stderr and its coverage still
# counts).
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 SCRATCH_DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
scratch="$(cd "$1" && pwd)"
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
flags="--coverage -O0"

benches=""
for src in "$root"/bench/bench_*.cc; do
  benches="$benches $(basename "$src" .cc)"
done
examples=""
for src in "$root"/examples/*.cpp; do
  examples="$examples $(basename "$src" .cpp)"
done

echo "coverage_sweep: building into $scratch" >&2
cmake -S "$root" -B "$scratch/build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" > "$scratch/build.log"
# shellcheck disable=SC2086  # word-split target lists
cmake --build "$scratch/build" -j "$jobs" --target $benches $examples \
  >> "$scratch/build.log"
cmake -S "$root/perfbench" -B "$scratch/perfbench" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" > "$scratch/perfbench.log"
cmake --build "$scratch/perfbench" -j "$jobs" >> "$scratch/perfbench.log"

# Fresh counters: a rerun must not mix in an earlier sweep's executions.
find "$scratch/build" "$scratch/perfbench" -name '*.gcda' -delete

runs="$scratch/runs"
rm -rf "$runs"
mkdir -p "$runs"
# One command line per run: NAME then the command.  gcov's runtime locks
# each .gcda while merging, so the runs may share object files.
{
  for name in $benches; do
    out="$runs/$name"
    echo "$name $scratch/build/bench/$name --trace-out=$out.trace.json" \
      "--metrics-out=$out.metrics.json --series-out=$out.series.json" \
      "--slo-out=$out.slo.json --postmortem-out=$out.postmortem.json"
  done
  for name in $examples; do
    echo "$name $scratch/build/examples/$name"
  done
  for workload in btree_ops fluid_local fluid_bridged ctrl_hier; do
    threads=1
    [ "$workload" = fluid_local ] && threads="$jobs"
    for trace in 0 1; do
      echo "perfbench.$workload.trace$trace $scratch/perfbench/perfbench" \
        "--workload=$workload --seed=1 --threads=$threads --trace=$trace"
    done
  done
} > "$runs/commands"

echo "coverage_sweep: running $(wc -l < "$runs/commands") programs" >&2
# The runs write into $runs, so they start there.
(cd "$runs" && xargs -P "$jobs" -L 1 sh -c '
  name="$1"; shift
  "$@" > "$name.stdout" 2> "$name.stderr" ||
    echo "coverage_sweep: $name exited $?" >&2
' sh < commands)

python3 - "$root" "$scratch/build" "$scratch/perfbench" <<'EOF'
import json, os, subprocess, sys
root = sys.argv[1]
src = os.path.join(root, "src") + os.sep
ran = {}  # (file, line, name) -> executed in any build
compiled = set()  # src/ files some build compiled (it has a .gcno)
linked = set()    # ... and some run linked (it has a .gcda)
for build in sys.argv[2:]:
    for dirpath, _, files in os.walk(build):
        # "x.cc.gcno" -> "x.cc".  An object with no .gcda was linked into
        # no program that ran: gcov reads its notes file alone and reports
        # every function in it unexecuted.
        objects = sorted(f[:-5] for f in files if f.endswith(".gcno"))
        if not objects:
            continue
        names = [o + (".gcda" if o + ".gcda" in files else ".gcno")
                 for o in objects]
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", *names], cwd=dirpath,
            check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", dirpath)
            for f in data["files"]:
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, root)
                base = os.path.basename(rel)
                if base in objects:
                    compiled.add(rel)
                    if base + ".gcda" in files:
                        linked.add(rel)
                for fn in f["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    ran[key] = ran.get(key, False) or fn["execution_count"] > 0
never_linked = sorted(compiled - linked)
never = sorted(k for k, executed in ran.items()
               if not executed and k[0] not in never_linked)
current = None
for rel, line, name in never:
    if rel != current:
        print(rel)
        current = rel
    print("  %d: %s" % (line, name))
unlinked = 0
for rel in never_linked:
    count = sum(1 for k in ran if k[0] == rel)
    unlinked += count
    print("never linked: %s (%d functions)" % (rel, count))
print("never executed: %d of %d src/ functions (%d in %d never-linked "
      "files)" % (len(never) + unlinked, len(ran), unlinked,
                  len(never_linked)))
EOF
