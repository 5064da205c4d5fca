#!/usr/bin/env python3
"""Builds and runs the gsopt repository benchmark.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only re-check the build. The benchmark
binary prints notes and, as its last line, the JSON result; this script
passes its output and exit code through (with --workload all, each
workload's output in turn). Traced runs (--trace 1) also write their
spans to <build dir>/traces/<workload>-seed<seed>.tsv.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "gsopt_perfbench")


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run timed out after %ds\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """The binary's own checks, then every workload through the normal
    command path: every metric BENCHMARK.json names is printed with its
    unit, and the short runs answer correctly."""
    failures = 0
    code, out = run(binary, ["--self-test"])
    sys.stdout.write(out)
    if code != 0:
        failures += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "provenance.json")) as f:
        provenance = json.load(f)
    for section in ("workloads", "end_to_end", "per_layer"):
        named = {m["name"] for m in spec[section]}
        if named != set(provenance[section]):
            print("self-test FAIL: provenance.json %s differ from "
                  "BENCHMARK.json: %s" % (section,
                                          sorted(named ^ set(provenance[section]))))
            failures += 1
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(binary, ["--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", trace])
            result = result_of(out)
            problems = []
            if code != 0 or result is None or not result["correct"]:
                problems.append("run failed (exit %d)" % code)
            else:
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append("attempted=%d failed=%d" %
                                    (result["attempted"], result["failed"]))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in spec[section]}
                if got != want:
                    problems.append("metrics differ from BENCHMARK.json: "
                                    "missing %s, extra %s, unit mismatch %s" % (
                                        sorted(set(want) - set(got)),
                                        sorted(set(got) - set(want)),
                                        sorted(k for k in want if k in got
                                               and got[k] != want[k])))
            status = "FAIL" if problems else "ok  "
            print("self-test %s: %s --trace %s prints every %s metric %s" % (
                status, workload, trace, section, "; ".join(problems)))
            failures += bool(problems)
    print("run.py self-test: %s" % ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]
    code = 0
    for workload in workloads:
        cmd = ["--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.tsv" % (workload, args.seed))]
        workload_code, out = run(binary, cmd)
        sys.stdout.write(out)
        sys.stdout.flush()
        code = code or workload_code
    return code


if __name__ == "__main__":
    sys.exit(main())
