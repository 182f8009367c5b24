#!/usr/bin/env python3
"""Runs tools/metrics_diff.py on the fixture pairs in tests/data/metrics_diff
and checks each exit status and the differing paths it prints.

    python3 tests/metrics_diff_test.py

Exit status 0 when every case holds, 1 otherwise (each failure is listed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "metrics_diff.py")
DATA = os.path.join(HERE, "data", "metrics_diff")

# (a, b, extra args, expected exit status, path prefixes every printed
# difference line must name, in order; None skips the line check)
CASES = [
    ("metrics_a", "metrics_a", [], 0, []),
    ("metrics_a", "metrics_b", [], 1, ["gauge ctrl.local_fraction:"]),
    ("metrics_a", "metrics_b", ["--epsilon", "1e-12"], 0, []),
    # An SLO document is not a metrics dump: comparing it in metrics mode
    # would compare nothing, so the tool refuses.
    ("slo_a", "slo_far", [], 2, None),
    ("slo_a", "slo_a", ["--mode=json"], 0, []),
    # 1.0 against 1 is the same number; 0.97 moved in the last bit.
    ("slo_a", "slo_near", ["--mode=json"], 1,
     ["$.tenants[0].attainment:"]),
    ("slo_a", "slo_near", ["--mode=json", "--epsilon", "1e-12"], 0, []),
    ("slo_a", "slo_far", ["--mode=json", "--epsilon", "1e-12"], 1,
     ["$.extra: only in B", "$.tenants[0].attainment:",
      "$.tenants[0].breached:", "$.tenants[0].epochs:",
      "$.tenants[0].note:", "$.tenants[1].note: only in A"]),
    ("slo_a", "slo_short", ["--mode=json"], 1,
     ["$.tenants: length 2 != 1"]),
    ("slo_a", "slo_near", ["--mode=exact"], 1, None),
]


def run_case(a, b, extra, want_rc, want_paths):
    cmd = [sys.executable, TOOL, os.path.join(DATA, a + ".json"),
           os.path.join(DATA, b + ".json")] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    label = "%s vs %s %s" % (a, b, " ".join(extra))
    errors = []
    if proc.returncode != want_rc:
        errors.append("%s: exit %d, want %d\n%s%s" % (
            label, proc.returncode, want_rc, proc.stdout, proc.stderr))
    if want_paths is not None:
        lines = [l for l in proc.stdout.splitlines()
                 if not l.endswith("difference(s)")]
        if len(lines) != len(want_paths) or not all(
                l.startswith(p) for l, p in zip(lines, want_paths)):
            errors.append("%s: printed %r, want lines starting %r" % (
                label, lines, want_paths))
    return errors


def main():
    failed = 0
    for case in CASES:
        errors = run_case(*case)
        failed += bool(errors)
        for e in errors:
            print("FAIL " + e)
    print("%d/%d cases pass" % (len(CASES) - failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
