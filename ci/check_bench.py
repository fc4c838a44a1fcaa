#!/usr/bin/env python3
"""Perf-regression gate over the micro-bench --json output.

Compares freshly produced BENCH_*.json runs against the checked-in
baseline (bench/BENCH_*.json) entry by entry and fails when any benchmark's
median regresses beyond the threshold (default 1.25x). Used by `ci/run.sh
bench` and `ci/run.sh serve`.

    ci/check_bench.py <baseline.json> <current.json> [<current.json> ...] [--threshold=1.25]
    ci/check_bench.py --ratio=FAST:SLOW [--ratio=...] --threshold=T <current.json>

Given several current runs, each entry is gated on the median of its
per-run medians, so one run that lands in a slow mode of a bimodal box
does not fail the gate on its own, while a regression that slows every run
still does.

Baseline entries missing from the current run fail the check (a renamed or
dropped benchmark must update the baseline on purpose); entries new in the
current run are reported but pass.

With --ratio the gate compares benchmarks of one run with each other, so no
recorded baseline (and no machine difference) is involved: each FAST
entry's median must be at most T times its SLOW entry's, and a missing
entry fails.
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


def median_of_runs(paths):
    """Each entry's median_s across the runs that have it (the middle run,
    or the mean of the middle two), with how many runs had it."""
    runs = [load(p) for p in paths]
    merged = {}
    for name in sorted(set().union(*runs)):
        values = sorted(r[name]["median_s"] for r in runs if name in r)
        mid = len(values) // 2
        median = (values[mid] if len(values) % 2
                  else 0.5 * (values[mid - 1] + values[mid]))
        merged[name] = {"median_s": median, "runs": len(values)}
    return merged


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


def main(argv):
    threshold = 1.25
    paths = []
    pairs = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--ratio="):
            fast, sep, slow = arg.split("=", 1)[1].partition(":")
            if not sep or not fast or not slow:
                print(f"bad --ratio {arg!r}: want FAST:SLOW", file=sys.stderr)
                return 2
            pairs.append((fast, slow))
        else:
            paths.append(arg)
    if pairs:
        if len(paths) != 1:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return check_ratios(paths[0], pairs, threshold)
    if len(paths) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, current = load(paths[0]), median_of_runs(paths[1:])
    runs = len(paths) - 1

    failures = []
    what = paths[1] if runs == 1 else f"median of {runs} runs"
    print(f"# bench gate: {what} vs baseline {paths[0]} "
          f"(threshold {threshold:.2f}x)")
    print(f"{'ratio':>8} {'baseline ms':>12} {'current ms':>12}  benchmark")
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None or cur["runs"] < runs:
            failures.append(f"{name}: missing from a current run")
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
