#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

The harness (perfbench/src, its own CMake project over ../src) is built
in Release into .bench_build/perfbench on first use. Progress and build
output go to stderr; the harness's metric lines go to stdout, and the
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports BENCHMARK.json's end_to_end
metrics, --trace 1 its per_layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
WORKLOADS = ("paper-sweep", "sparse-issue", "daemon-replay")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


class Child:
    """Runs one child process; kills and reaps it if we are stopped."""

    def __init__(self, cmd, **kw):
        self.proc = subprocess.Popen(cmd, **kw)

    def wait(self):
        try:
            out, _ = self.proc.communicate()
            return self.proc.returncode, out
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_harness", "-j", str(nproc())])
    for cmd in steps:
        code, _ = Child(cmd, stdout=sys.stderr, stderr=sys.stderr).wait()
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(cmd)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # Turn SIGTERM into an exception so the child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    cmd = [str(BUILD / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK)]
    code, out = Child(cmd, stdout=subprocess.PIPE, text=True).wait()
    lines = out.splitlines()
    if not lines:
        fail(f"harness printed nothing (exit {code})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"harness did not end with a result line (exit {code})")
    if code != 0 or not result.get("correct"):
        print(json.dumps(result))
        fail(f"output checks failed (exit {code})")

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} "
             f"extra={extra} unit mismatches={units}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
