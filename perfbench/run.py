#!/usr/bin/env python3
"""Build and run the forksim benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the simulator sources in src/) into
.bench_build/, runs the forkbench binary, and checks its output: every
correctness check passed, the workload parameters are the ones recorded in
perfbench/workloads.json, the outcome digest equals the pinned digest when
the seed has one, and every metric BENCHMARK.json names is present with its
unit. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit status is 0 only
for a correct run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at src/; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    # configured on every run: cheap, and cmake refuses a build directory
    # whose cache belongs to another source tree, so a run never times the
    # sources of a different checkout
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", *generator, "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "forkbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    record = json.loads((HERE / "workloads.json").read_text())
    workload = record["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}")
    seed = record["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    out = ROOT / ".bench_build" / "perfbench"
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{args.workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"forkbench exited {proc.returncode} without a result line")

    problems = [f"check failed: {name}"
                for name, ok in raw["checks"].items() if not ok]
    if proc.returncode != 0:
        problems.append(f"forkbench exited {proc.returncode}")
    if raw["params"] != workload["params"]:
        problems.append(f"parameters {raw['params']} differ from "
                        f"workloads.json {workload['params']}")
    pinned = workload["pinned_digests"].get(str(seed))
    if pinned is not None and raw["digest"] != pinned:
        problems.append(f"outcome digest {raw['digest']} != pinned {pinned}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}")
        else:
            metrics[m["name"]] = got
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
