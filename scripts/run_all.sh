#!/usr/bin/env bash
# Builds everything, runs the full test suite (which runs every example as
# a ctest, label `example`), every figure/table bench, and the
# hot-path/serving trajectory benches (gated against the committed perf
# trajectory). This is the repository's one-command verification.
#
# Every step runs even if an earlier one failed — a mid-sequence bench
# failure used to be easy to scroll past — and the script exits nonzero
# with a summary naming each failed step.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2

failed_steps=()

# Runs a named step, recording (not aborting on) failure.
step() {
  local name="$1"
  shift
  echo "==== ${name} ===================================================="
  if ! "$@"; then
    echo "FAILED: ${name}" >&2
    failed_steps+=("${name}")
    return 1
  fi
}

# The build is the one hard prerequisite: nothing below can run without it.
step "configure" cmake -B build -G Ninja || exit 1
step "build" cmake --build build || exit 1

step "tests" ctest --test-dir build --output-on-failure

run_figure_benches() {
  local b ok=0
  for b in build/bench/*; do
    if [ ! -f "$b" ] || [ ! -x "$b" ]; then continue; fi
    case "$b" in *.cmake | *CMakeFiles*) continue ;;
    # The hot-path benches run explicitly below, with their JSON outputs.
    */shm_hotpath | */net_hotpath | */rma_hotpath | */serve_loadgen) continue ;; esac
    echo "---- $b"
    if ! "$b"; then
      echo "FAILED: $b" >&2
      ok=1
    fi
  done
  return "$ok"
}
step "figure/table benches" run_figure_benches

# Hot-path trajectory: full-length runs land in a staging directory, the
# perf gate diffs them against the committed results/BENCH_*.json, and
# only a green gate refreshes the committed files. A red gate leaves the
# fresh runs as results/BENCH_*.fresh.json for inspection (and for a
# deliberate `bench_gate.py derive` / waiver, see docs/VALIDATION.md).
run_trajectory_benches() {
  local stage
  stage="$(mktemp -d)" || return 1
  ./build/bench/shm_hotpath --json="${stage}/BENCH_shm.json" \
    --trace=results/TRACE_shm_hotpath.json || return 1
  ./build/bench/net_hotpath --json="${stage}/BENCH_net.json" || return 1
  ./build/bench/rma_hotpath --json="${stage}/BENCH_rma.json" || return 1
  ./build/bench/serve_loadgen --backend=shm \
    --json="${stage}/BENCH_serve.json" || return 1
  if python3 scripts/bench_gate.py check \
    --fresh "${stage}/BENCH_shm.json" --fresh "${stage}/BENCH_net.json" \
    --fresh "${stage}/BENCH_rma.json" --fresh "${stage}/BENCH_serve.json"; then
    mv "${stage}/BENCH_shm.json" results/BENCH_shm.json
    mv "${stage}/BENCH_net.json" results/BENCH_net.json
    mv "${stage}/BENCH_rma.json" results/BENCH_rma.json
    mv "${stage}/BENCH_serve.json" results/BENCH_serve.json
    rmdir "${stage}"
  else
    mv "${stage}/BENCH_shm.json" results/BENCH_shm.fresh.json
    mv "${stage}/BENCH_net.json" results/BENCH_net.fresh.json
    mv "${stage}/BENCH_rma.json" results/BENCH_rma.fresh.json
    mv "${stage}/BENCH_serve.json" results/BENCH_serve.fresh.json
    rmdir "${stage}"
    echo "perf gate red: fresh runs kept as results/BENCH_*.fresh.json" >&2
    return 1
  fi
}
step "hot-path benches + perf gate" run_trajectory_benches

if [ "${#failed_steps[@]}" -gt 0 ]; then
  echo ""
  echo "run_all: ${#failed_steps[@]} step(s) FAILED:" >&2
  printf '  - %s\n' "${failed_steps[@]}" >&2
  exit 1
fi
echo ""
echo "run_all: all steps passed"
