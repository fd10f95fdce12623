#!/usr/bin/env python3
"""Repository benchmark: build, self-test and run one workload.

    python3 perfbench/run.py --workload dram2d|dram3d|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The library (../src) and the benchmark program
(perfbench.cpp) are built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run configures and compiles,
later runs only relink what changed. After every build the self-test of the
benchmark's arithmetic (selftest.cpp) must pass before anything is measured.

The program prints human-readable lines and, as its last stdout line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes a Chrome trace next to the build). This script checks that the
reported metric names are exactly the ones BENCHMARK.json declares and exits
with the program's status: 0 only when every checked output was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dram2d", "dram3d", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    steps.append([os.path.join(bdir, "perfbench_selftest")])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"step failed: {' '.join(cmd)}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    bdir = build_dir()
    build(bdir)
    # The service's Unix socket lives in the build directory; a relative
    # path keeps it within the sun_path limit.
    out = os.path.relpath(bdir)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench exited {proc.returncode} without a result line", 3)
    got = set(result.get("metrics", {}))
    want = declared_metrics(args.trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}"
             f", undeclared {sorted(got - want)}", 3)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
