#!/usr/bin/env python3
"""Build and run the checker benchmark for one workload.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (perfbench/bench.ml) is built from source with dune,
then run once.  Its output is relayed; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics; any other set is refused.  --workload all runs every
workload of BENCHMARK.json in turn.  Build products go to _build/
and run records (results, spans) to .bench_out/, both inside the checkout.

Exit codes: 0 on a result, 1 when the build, the run or the result check
fails, 2 on bad arguments or a tree that is not a checkout of the repository.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a repository, else a hash of the
    sources the benchmark builds (a checkout without .git has no commit)."""
    if os.path.isdir(".git") and shutil.which("git"):
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                check=True, timeout=30).stdout.strip()
        except (subprocess.SubprocessError, OSError):
            pass
    digest = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    for needed in ["BENCHMARK.json", "dune-project", "lib", "perfbench/bench.ml"]:
        if not os.path.exists(needed):
            fail(2, "run from the root of a checkout of the repository "
                    "(%s is missing)" % needed)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(2, "unknown workload %r (expected one of %s)"
             % (args.workload, ", ".join(names)))
    dune = shutil.which("dune")
    if dune is None:
        fail(1, "dune is not on PATH")

    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/bench.exe"],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail(1, "build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    commit = source_id()
    for workload in names if args.workload == "all" else [args.workload]:
        run_one(workload, args, spec, commit)


def run_one(workload, args, spec, commit):
    command = [EXE, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit, "--out", OUT_DIR]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "benchmark run timed out")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(1, "benchmark exited with code %d" % run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(1, "the last line of the benchmark output is not JSON")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metrics}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] \
            or got != expected:
        fail(1, "the result does not match the metrics of BENCHMARK.json")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
