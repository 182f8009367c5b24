#!/bin/sh
# Simulated-output identity check between two builds of this repository.
# A change meant to cut host cost (not to change the model) must leave
# every simulated output of every deterministic bench byte-identical.
#
# Usage: sim_identity.sh OLD_BUILD NEW_BUILD [SCRATCH_DIR] [BENCH...]
#
# OLD_BUILD and NEW_BUILD are CMake build directories of the two trees.
# A third argument that names a bench in OLD_BUILD/bench starts the BENCH
# list; any other third argument is the scratch directory.
# Each bench under OLD_BUILD/bench (or each named BENCH) runs once per build
# with the same sidecars, and these are compared:
#   stdout   byte for byte;
#   series   (--series-out), SLO (--slo-out) and metrics (--metrics-out)
#            as canonical JSON;
#   trace    (--trace-out) as a multiset of events.
# Only the solver-work keys are ignored.  They count host work (how many
# solves, how many flows each touched), not simulated results:
#   metrics  counters named fluid.solver.*;
#   series   series named .../solver.* (recompute_calls in bench_chaos;
#            recompute_calls, shard_tasks and flows_touched in
#            bench_scaling);
#   trace    solver/rate_change instants (one per solve).
# Benches that print host time on stdout are skipped unless named:
# bench_solver and bench_frame_size.  Prints one line per bench and exits 1
# if any output differs, a run fails ("FAIL NAME"), or a bench runs in
# OLD_BUILD but is missing from NEW_BUILD ("only-old NAME").  To compare across a change that adds
# or rewrites benches, name the benches both builds share.
set -eu

old="$1"
new="$2"
shift 2
scratch="${TMPDIR:-/tmp}/sim_identity"
if [ $# -ge 1 ] && [ ! -x "$old/bench/$1" ]; then
  scratch="$1"
  shift
fi

if [ $# -eq 0 ]; then
  for path in "$old"/bench/bench_*; do
    [ -x "$path" ] || continue
    name="$(basename "$path")"
    case "$name" in
      bench_solver|bench_frame_size) ;;
      *) set -- "$@" "$name" ;;
    esac
  done
fi

canon() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
kind, src, dst = sys.argv[1:]
try:
    with open(src, encoding="utf-8") as f:
        doc = json.load(f)
except OSError:
    doc = None  # the bench wrote no such sidecar
if kind == "metrics" and doc is not None:
    doc["counters"] = {k: v for k, v in doc.get("counters", {}).items()
                       if not k.startswith("fluid.solver.")}
elif kind == "series" and doc is not None:
    doc["series"] = {k: v for k, v in doc.get("series", {}).items()
                     if "/solver." not in k}
elif kind == "trace" and doc is not None:
    events = [e for e in doc.get("traceEvents", [])
              if not (e.get("cat") == "solver" and
                      e.get("name") == "rate_change")]
    doc = sorted(json.dumps(e, sort_keys=True) for e in events)
with open(dst, "w", encoding="utf-8") as f:
    json.dump(doc, f, sort_keys=True, indent=0)
EOF
}

status=0
for name in "$@"; do
  if [ ! -x "$new/bench/$name" ]; then
    echo "only-old $name"
    status=1
    continue
  fi
  dir="$scratch/$name"
  mkdir -p "$dir"
  rm -f "$dir"/*.raw
  for side in old new; do
    if [ "$side" = old ]; then build="$old"; else build="$new"; fi
    if ! "$build/bench/$name" \
      --series-out="$dir/$side.series.raw" \
      --slo-out="$dir/$side.slo.raw" \
      --metrics-out="$dir/$side.metrics.raw" \
      --trace-out="$dir/$side.trace.raw" \
      > "$dir/$side.stdout" 2> "$dir/$side.stderr"; then
      echo "FAIL  $name: $side run failed, see $dir/$side.stderr"
      status=1
      continue 2
    fi
    for kind in series slo metrics trace; do
      canon "$kind" "$dir/$side.$kind.raw" "$dir/$side.$kind"
    done
  done
  differs=""
  for kind in stdout series slo metrics trace; do
    cmp -s "$dir/old.$kind" "$dir/new.$kind" || differs="$differs $kind"
  done
  if [ -z "$differs" ]; then
    echo "same  $name"
  else
    echo "DIFF  $name:$differs"
    status=1
  fi
done
exit $status
