#!/usr/bin/env python3
"""Perf-regression gate over the micro-bench --json output.

Compares a freshly produced BENCH_*.json against the checked-in baseline
(bench/BENCH_*.json) entry by entry and fails when any benchmark's median
regresses beyond the threshold (default 1.25x). Used by `ci/run.sh bench`.

    ci/check_bench.py <baseline.json> <current.json> [--threshold=1.25]
    ci/check_bench.py --ratio=FAST:SLOW [--ratio=...] --threshold=T <current.json>
    ci/check_bench.py --min-field=PATH:FLOOR [--min-field=...] <current.json>

Baseline entries missing from the current run fail the check (a renamed or
dropped benchmark must update the baseline on purpose); entries new in the
current run are reported but pass.

With --ratio the gate compares benchmarks of one run with each other, so no
recorded baseline (and no machine difference) is involved: each FAST
entry's median must be at most T times its SLOW entry's, and a missing
entry fails.

With --min-field the gate reads a number the run itself derived, such as
serve_slack's packed-over-sequential `serve_mixed_designs.speedup`: PATH is
a dotted path of object keys from the top of the JSON, and the value there
must be at least FLOOR. A missing or non-numeric value fails.
"""

import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    # Sweep entries vary by machine shape; the gate watches the plain runs.
    return {
        e["name"]: e for e in doc.get("results", [])
        if not e["name"].startswith("SWEEP_")
    }


def check_ratios(path, pairs, threshold):
    current = load(path)
    failures = []
    print(f"# ratio gate: {path} (each fast/slow at most {threshold:.2f})")
    print(f"{'ratio':>8} {'fast ms':>12} {'slow ms':>12}  fast / slow")
    for fast, slow in pairs:
        missing = [n for n in (fast, slow) if n not in current]
        if missing:
            failures.append(f"{', '.join(missing)}: missing from current run")
            continue
        f_s, s_s = current[fast]["median_s"], current[slow]["median_s"]
        ratio = f_s / s_s
        flag = " <-- TOO SLOW" if ratio > threshold else ""
        print(f"{ratio:8.3f} {f_s * 1e3:12.4f} {s_s * 1e3:12.4f}  "
              f"{fast} / {slow}{flag}")
        if ratio > threshold:
            failures.append(f"{fast}: {ratio:.3f}x of {slow}")
    if failures:
        print(f"# ratio gate FAILED ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"#   {f}", file=sys.stderr)
        return 1
    print("# ratio gate OK")
    return 0


def check_min_fields(path, floors):
    with open(path) as f:
        doc = json.load(f)
    failures = []
    print(f"# field gate: {path}")
    for field, floor in floors:
        value = doc
        for key in field.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            failures.append(f"{field}: missing or not a number")
            continue
        flag = " <-- BELOW FLOOR" if value < floor else ""
        print(f"{value:12.4f} >= {floor:<10.4f} {field}{flag}")
        if value < floor:
            failures.append(f"{field}: {value} below floor {floor}")
    if failures:
        print(f"# field gate FAILED ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"#   {f}", file=sys.stderr)
        return 1
    print("# field gate OK")
    return 0


def main(argv):
    threshold = 1.25
    paths = []
    pairs = []
    floors = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--min-field="):
            field, sep, floor = arg.split("=", 1)[1].rpartition(":")
            try:
                floors.append((field, float(floor)))
            except ValueError:
                sep = ""
            if not sep or not field:
                print(f"bad --min-field {arg!r}: want PATH:FLOOR",
                      file=sys.stderr)
                return 2
        elif arg.startswith("--ratio="):
            fast, sep, slow = arg.split("=", 1)[1].partition(":")
            if not sep or not fast or not slow:
                print(f"bad --ratio {arg!r}: want FAST:SLOW", file=sys.stderr)
                return 2
            pairs.append((fast, slow))
        else:
            paths.append(arg)
    if pairs and floors:
        print("--ratio and --min-field are separate checks", file=sys.stderr)
        return 2
    if pairs or floors:
        if len(paths) != 1:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        if floors:
            return check_min_fields(paths[0], floors)
        return check_ratios(paths[0], pairs, threshold)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, current = load(paths[0]), load(paths[1])

    failures = []
    print(f"# bench gate: {paths[1]} vs baseline {paths[0]} "
          f"(threshold {threshold:.2f}x)")
    print(f"{'ratio':>8} {'baseline ms':>12} {'current ms':>12}  benchmark")
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        if base["median_s"] <= 0:
            continue
        ratio = cur["median_s"] / base["median_s"]
        flag = " <-- REGRESSION" if ratio > threshold else ""
        print(f"{ratio:8.3f} {base['median_s'] * 1e3:12.3f} "
              f"{cur['median_s'] * 1e3:12.3f}  {name}{flag}")
        if ratio > threshold:
            failures.append(f"{name}: {ratio:.3f}x over baseline")
    for name in sorted(set(current) - set(baseline)):
        print(f"{'new':>8} {'-':>12} "
              f"{current[name]['median_s'] * 1e3:12.3f}  {name}")

    if failures:
        print(f"# bench gate FAILED ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"#   {f}", file=sys.stderr)
        return 1
    print("# bench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
