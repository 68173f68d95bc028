#!/usr/bin/env python3
"""Runs one workload of the FM benchmark and prints its result as JSON.

    python3 perfbench/run.py --workload shm-msg --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds perfbench/ (which
compiles ../src) into .bench_build/ with CMake; later runs only re-check
the build. The benchmark binary pins every rank to its own CPU, checks
every delivered operation and prints '@' lines; this script turns them
into the result, the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

The metrics, their units and their order come from BENCHMARK.json: the
end_to_end list for --trace 0, the per_layer list for --trace 1. A
per-layer metric the workload has no layer for reads 0.

On the shm workloads every end-to-end latency and rate is reported at a
nominal host speed: the binary measures a bare shared-memory ring on the
ranks' CPUs in every round and scales by how fast it ran (HostRef in
common.h). The raw figures and the scaling are printed above the result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "fmbench"
WORKLOADS = ("shm-msg", "net-msg", "serve-shm", "rma-shm")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds fmbench; build output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "fmbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def source_id():
    """Names the code under test: the git commit when there is one, and
    always a digest of the benchmark and library sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "tree-" + digest.hexdigest()[:12]
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10, check=True)
            ident = "git-" + sha.stdout.strip() + "+" + ident
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(BUILD / "traces"), "--source", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(proc.stderr)

    got, attempted, failed, correct = {}, None, None, None
    for line in proc.stdout.splitlines():
        print(line)
        head, _, rest = line.partition(" ")
        if head == "@metric":
            name, value = rest.split()
            got[name] = float(value)
        elif head == "@attempted":
            attempted = int(rest)
        elif head == "@failed":
            failed = int(rest)
        elif head == "@correct":
            correct = rest.strip() == "1"
    if attempted is None or failed is None or correct is None:
        fail(f"{args.workload} exited {proc.returncode} without a result", 5)

    metrics = {}
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            if not args.trace:  # every end-to-end metric is measured on every workload
                print(f"@error end-to-end metric {m['name']} was not measured")
                correct = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    ok = bool(correct and proc.returncode == 0)
    print(json.dumps({"correct": ok, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
