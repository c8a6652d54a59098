#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py --workload headset_fixation --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `pvc_benchmark` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs the
named workload, checks that the metric names and units it printed are
the ones BENCHMARK.json lists for that trace mode, and prints a `host`
line recording the machine and the build, then the result line. Exits
non-zero, without a result line, if any step fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# What the source digest covers: everything the benchmark binary is built from.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "src", "benchmark"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the paths and contents of every source file."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCE_ROOTS:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(os.path.join(base, name) for name in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def command_output(args):
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record(params):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source_digest(),
        "profile": "release",
        "rustc": command_output(["rustc", "--version"]),
        "run": params,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    run = [
        os.path.join(target, "release", "pvc_benchmark"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        run += ["--spans-out", spans]
    try:
        done = subprocess.run(run, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark failed: {err}")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
        params = json.loads(lines[-2].removeprefix("params ")) if len(lines) > 1 else None
    except ValueError as err:
        fail(f"unparsable output: {err}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != listed:
        fail(f"printed metrics {printed} differ from BENCHMARK.json {listed}")

    print("host " + json.dumps(host_record(params)))
    print(lines[-1])


if __name__ == "__main__":
    main()
