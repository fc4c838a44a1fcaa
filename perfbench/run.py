#!/usr/bin/env python3
"""perfbench: build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload predict_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE.json NEW.json
    python3 perfbench/run.py --selftest

A run configures and builds this directory with CMake into
$CARGO_TARGET_DIR (default .bench_build under the checkout root), runs the
`perfbench` binary, checks its result line against BENCHMARK.json, saves the
result with its machine shape as
<build>/results/<workload>-seed<N>-trace<T>.json, and prints the result line
last. When the build, the run or the check fails it prints no result and
exits non-zero.

--compare prints each metric's change between two saved results and refuses
(exit 3) results of different machine shapes. --selftest builds and runs the
benchmark's own tests.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("predict_mix", "eco_stream", "cold_design", "train")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Shape fields that make two results incomparable. The seed is recorded in
# the shape as well, but comparisons pool runs of different seeds.
SHAPE_KEYS = ("workload", "nproc", "kernel_backend", "tg_threads",
              "server_workers", "scale", "build_type")
CONFIGURE_TIMEOUT_S = 240
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failed build, run or check."""


class ShapeMismatch(BenchError):
    """Two results measured under different machine shapes."""


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env():
    """The environment of every child: temporary files stay inside the build
    directory, and no ambient TG_* variable changes what is measured (each
    workload pins its own thread and server settings)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TG_")}
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def run_group(cmd, timeout, stdout=None):
    """Runs `cmd` in a process group of its own and waits for it. On a
    timeout or an interruption the whole group is killed and reaped, so no
    compiler or benchmark process outlives this script. Returns
    (returncode, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=child_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{os.path.basename(cmd[0])} timed out after "
                             f"{timeout} s") from None
        raise
    return proc.returncode, out


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no repository sources in {ROOT}: perfbench builds "
                         "the libraries from src/")
    bdir = build_dir()
    if not any(os.path.isfile(os.path.join(bdir, f))
               for f in ("Makefile", "build.ninja")):
        code, _ = run_group(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=Release"],
                            CONFIGURE_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise BenchError(f"configuring perfbench exited with {code}")
    code, _ = run_group(["cmake", "--build", bdir, "--target", target,
                         "-j", str(cpu_count())],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        raise BenchError(f"building {target} exited with {code}")
    return os.path.join(bdir, target)


def load_contract():
    """BENCHMARK.json at the checkout root, or None when absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def check_result(result, contract, trace):
    """Raises BenchError unless `result` is a well-formed result line whose
    metrics are exactly the contract's end-to-end metrics (trace 0) or its
    per-layer metrics (trace 1), with their units."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys must be {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("result 'correct' must be true or false")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise BenchError(f"result '{key}' must be a whole number")
    if result["attempted"] < 1:
        raise BenchError("result 'attempted' must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise BenchError("result 'metrics' must be an object")
    for name, m in metrics.items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or not is_number(m["value"])):
            raise BenchError(f"metric {name} must be "
                             "{'value': <finite number>, 'unit': <unit>}")
    if contract is None:
        return
    wanted = {m["name"]: m["unit"]
              for m in contract["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(wanted) & set(got)
                       if wanted[n] != got[n])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, other unit {units}")


def run_workload(args):
    binary = build("perfbench")
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--trace-out={os.path.join(results, tag + '.trace.json')}"]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.decode("utf-8", errors="replace").splitlines()
    if code != 0 or not lines:
        raise BenchError(f"perfbench exited with {code}")
    shape = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("shape "):
            shape = json.loads(line[len("shape "):])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"last line is not a result: {lines[-1][:200]}") \
            from None
    check_result(result, load_contract(), args.trace)
    if shape is None:
        raise BenchError("perfbench printed no shape line")
    record = {"shape": shape, "trace": args.trace, "seconds": args.seconds,
              "result": result}
    with open(os.path.join(results, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(lines[-1], flush=True)


def shape_key(record):
    shape = record.get("shape") or {}
    return {k: shape.get(k) for k in SHAPE_KEYS}


def compare(base, new, contract=None):
    """Per-metric change from `base` to `new`, as report lines. Raises
    ShapeMismatch when the two were measured under different machine
    shapes, or one traced and the other not."""
    kb, kn = shape_key(base), shape_key(new)
    diffs = [f"{k} {kb[k]!r} vs {kn[k]!r}" for k in SHAPE_KEYS
             if kb[k] != kn[k]]
    if base.get("trace") != new.get("trace"):
        diffs.append(f"trace {base.get('trace')!r} vs {new.get('trace')!r}")
    if diffs:
        raise ShapeMismatch("refusing to compare results of different "
                            "shapes: " + "; ".join(diffs))
    rules = {}
    if contract:
        for m in contract.get("end_to_end", []) + contract.get("per_layer", []):
            rules[m["name"]] = m
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    lines = []
    for name in sorted(set(bm) & set(nm)):
        b, n = bm[name]["value"], nm[name]["value"]
        rule = rules.get(name, {})
        change = (n - b) / abs(b) if b else 0.0
        worse = {"lower": change, "higher": -change}.get(rule.get("better"))
        verdict = ""
        if worse is not None and "bound" in rule and worse > rule["bound"]:
            verdict = f"  WORSE beyond bound {rule['bound']:.0%}"
        lines.append(f"{name:36s} {b:12.6g} -> {n:12.6g} {change:+8.2%}"
                     f"{verdict}")
    return lines


def selftest():
    binary = build("perfbench_tests")
    code, _ = run_group([binary], BUILD_TIMEOUT_S)
    tests = os.path.join(HERE, "tests")
    suite = unittest.defaultTestLoader.discover(tests, pattern="test_*.py",
                                                top_level_dir=tests)
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if code == 0 and ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Build perfbench and run one workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two saved results")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.selftest:
            return selftest()
        if args.compare:
            records = []
            for path in args.compare:
                with open(path, encoding="utf-8") as f:
                    records.append(json.load(f))
            for line in compare(records[0], records[1], load_contract()):
                print(line)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not args.seconds > 0 or args.seed < 0:
            parser.error("--seconds must be positive and --seed not negative")
        run_workload(args)
        return 0
    except ShapeMismatch as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    except (BenchError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
