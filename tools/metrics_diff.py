#!/usr/bin/env python3
"""Compare two metrics JSON sidecars (--metrics-out= dumps).

Three modes:

  --mode=metrics (default) understands the counters/gauges/histograms
    schema.  Counters must match exactly; gauges, histogram means, and
    histogram percentiles compare within a relative epsilon (default 0,
    i.e. exact — the deterministic export should be byte-identical, so
    any epsilon is an explicit concession).  Histogram bucket arrays and
    counts compare exactly.  A document with none of the three keys is a
    usage error (exit 2): it is not a metrics dump, and comparing it here
    would compare nothing.
  --mode=json compares any two documents (series, SLO, trace sidecars)
    path by path: object keys, array lengths, strings, booleans, nulls
    and integers exactly, floats within --epsilon relative.
  --mode=exact canonicalises and compares the whole document.

Exit status: 0 when the files agree, 1 on any difference, 2 on usage or
I/O errors.  Differences are listed one per line as

    <kind> <name>: <a-value> != <b-value>      (metrics)
    <path>: <a-value> != <b-value>             (json, e.g. $.series[3].v)

so a CI canary can surface the first regression directly.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"metrics_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def close(a, b, eps):
    if a == b:
        return True
    if eps <= 0:
        return False
    scale = max(abs(a), abs(b))
    return scale > 0 and abs(a - b) / scale <= eps


def diff_maps(kind, a, b, out, value_diff):
    for name in sorted(set(a) | set(b)):
        if name not in a:
            out.append(f"{kind} {name}: only in B (= {b[name]})")
        elif name not in b:
            out.append(f"{kind} {name}: only in A (= {a[name]})")
        else:
            value_diff(name, a[name], b[name], out)


def diff_metrics(a, b, eps):
    out = []

    def exact(name, va, vb, out):
        if va != vb:
            out.append(f"counter {name}: {va} != {vb}")

    def approx(name, va, vb, out):
        if not close(float(va), float(vb), eps):
            out.append(f"gauge {name}: {va} != {vb}")

    def hist(name, ha, hb, out):
        for field in ("count", "min", "max", "buckets"):
            if ha.get(field) != hb.get(field):
                out.append(
                    f"histogram {name}.{field}: "
                    f"{ha.get(field)} != {hb.get(field)}")
        for field in ("mean", "p50", "p99", "p999"):
            va, vb = ha.get(field, 0), hb.get(field, 0)
            if not close(float(va), float(vb), eps):
                out.append(f"histogram {name}.{field}: {va} != {vb}")

    diff_maps("counter", a.get("counters", {}), b.get("counters", {}),
              out, exact)
    diff_maps("gauge", a.get("gauges", {}), b.get("gauges", {}),
              out, approx)
    diff_maps("histogram", a.get("histograms", {}), b.get("histograms", {}),
              out, hist)
    return out


METRICS_KEYS = ("counters", "gauges", "histograms")


def diff_json(a, b, eps, path, out):
    """Appends one line per differing leaf, key set or array length."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}"
            if key not in a:
                out.append(f"{sub}: only in B (= {json.dumps(b[key])})")
            elif key not in b:
                out.append(f"{sub}: only in A (= {json.dumps(a[key])})")
            else:
                diff_json(a[key], b[key], eps, sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (va, vb) in enumerate(zip(a, b)):
            diff_json(va, vb, eps, f"{path}[{i}]", out)
    elif (isinstance(a, float) or isinstance(b, float)) and \
            is_number(a) and is_number(b):
        # A float on either side: the writer printed a real number, which
        # may round to an integer on one side only.
        if not close(float(a), float(b), eps):
            out.append(f"{path}: {a!r} != {b!r}")
    elif type(a) is not type(b) or a != b:
        # Strings, integers, booleans and nulls compare exactly (and a
        # bool never equals the integer 1 here).
        out.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main():
    parser = argparse.ArgumentParser(
        description="Diff two metrics/series/slo JSON sidecars.")
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument(
        "--epsilon", type=float, default=0.0,
        help="relative tolerance for gauges and histogram stats "
             "(default 0 = exact)")
    parser.add_argument(
        "--mode", choices=("metrics", "json", "exact"), default="metrics",
        help="'metrics' understands the counters/gauges/histograms "
             "schema; 'json' compares any two documents path by path "
             "(floats within --epsilon); 'exact' compares any JSON "
             "document canonically")
    args = parser.parse_args()

    a, b = load(args.a), load(args.b)
    if args.mode == "exact":
        if a == b:
            return 0
        print(f"documents differ: {args.a} vs {args.b}")
        return 1

    if args.mode == "json":
        diffs = []
        diff_json(a, b, args.epsilon, "$", diffs)
    else:
        if not any(isinstance(doc, dict) and key in doc
                   for doc in (a, b) for key in METRICS_KEYS):
            print(f"metrics_diff: neither {args.a} nor {args.b} has "
                  f"{'/'.join(METRICS_KEYS)}; not a metrics dump "
                  "(use --mode=json)", file=sys.stderr)
            return 2
        diffs = diff_metrics(a, b, args.epsilon)
    for line in diffs:
        print(line)
    if diffs:
        print(f"{len(diffs)} difference(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
