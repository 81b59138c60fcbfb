#!/usr/bin/env bash
# Tier-1 verification: build and run the full test suite normally and
# under AddressSanitizer + UBSan, run the checker-enabled suite under
# plain UBSan, run the concurrency/determinism tests under
# ThreadSanitizer to check the sweep service's worker pool and the
# library's re-entrancy guarantees, smoke the failure-forensics pipeline
# (deliberately fatal fault plan -> JSON report -> plan minimizer),
# smoke the sweep service's crash safety (kill -9/resume, cache
# poisoning, isolation, SIGINT; scripts/sweep_smoke.sh), smoke
# checkpoint save/restore determinism, corrupt-checkpoint quarantine,
# sampled-run determinism and the checkpoint-prefix farm (cold
# populate, warm zero-fast-forward rerun, corrupt-entry re-production,
# isolate-mode flock race; scripts/checkpoint_smoke.sh), smoke I/O
# fault injection across the persistence stack (per-site faults,
# mid-operation crashes and a seeded probabilistic soak must never
# move sweep stdout or leave temp litter; scripts/chaos_smoke.sh),
# gate the sweep journal a live sweep just wrote (scripts/check_bench.py
# --journal), smoke the mobile kernel tier (fig_mobile BVL_JOBS=1 vs 4
# byte-identical, its journal gated, and its simulated-time /
# access-pattern table gated against the pinned BENCH_mobile.json via
# scripts/check_bench.py --mobile), gate the sampled-simulation
# cycle-error bound against full detail (fig04_sampled +
# scripts/check_bench.py --sampled), gate the kernel microbenchmarks
# against the pinned baseline (scripts/check_bench.py), and run the
# benchmark's self-test (perf/run.py --self-test: its timed cells must
# match runWorkload exactly), and gate the count of src/ lines tier-1
# never runs (a Debug --coverage build read back with gcov).
#
# Suites are selected with ctest labels (see tests/CMakeLists.txt):
# unit, checker, concurrency, trace, workloads.
#
# Parallelism: --jobs N or BVL_CI_JOBS=N (default: nproc). CI runners
# often have fewer cores than nproc reports usable; both knobs
# propagate to cmake --build and ctest.
#
# Each section is a leg callable by name, which is how the GitHub
# workflow runs them, so local and hosted gates cannot drift apart:
#
#   normal determinism journal mobile trace sweep checkpoint chaos
#   sampled microbench perf forensics coverage asan ubsan tsan
#
# With no leg named, every leg runs in that order. All but normal,
# microbench, coverage and the sanitizer legs use the ./build tree as
# built by the normal leg; journal and trace also read determinism's
# output.
#
# Usage: scripts/ci.sh [--jobs N] [leg...]
set -euo pipefail

cd "$(dirname "$0")/.."

all_legs=(normal determinism journal mobile trace sweep checkpoint chaos
          sampled microbench perf forensics coverage asan ubsan tsan)
usage="usage: scripts/ci.sh [--jobs N] [leg...]; legs: ${all_legs[*]}"

jobs="${BVL_CI_JOBS:-$(nproc)}"
legs=()
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs)
        [ $# -ge 2 ] || { echo "--jobs needs a value" >&2; exit 2; }
        jobs="$2"; shift 2 ;;
      --jobs=*)
        jobs="${1#--jobs=}"; shift ;;
      -*)
        echo "unknown option: $1 ($usage)" >&2
        exit 2 ;;
      *)
        case " ${all_legs[*]} " in
          *" $1 "*) legs+=("$1"); shift ;;
          *) echo "unknown leg: $1 ($usage)" >&2; exit 2 ;;
        esac ;;
    esac
done
case "$jobs" in
  ''|*[!0-9]*) echo "--jobs/BVL_CI_JOBS must be a number" >&2; exit 2 ;;
esac
[ ${#legs[@]} -gt 0 ] || legs=("${all_legs[@]}")

leg_normal() {
    echo "=== normal build (jobs=$jobs) ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$jobs"
    ctest --test-dir build --output-on-failure -j "$jobs"
}

leg_determinism() {
    echo "=== parallel sweep determinism (BVL_JOBS=1 vs 4) ==="
    # Separate BVL_SWEEP_DIR per run: the point is comparing two *live*
    # sweeps, not a sweep against its own journal replay.
    rm -rf build/sweep.j1 build/sweep.j4
    BVL_SCALE=tiny BVL_JOBS=1 BVL_SWEEP_DIR=build/sweep.j1 \
        ./build/bench/fig04_speedup > build/fig04.j1
    BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR=build/sweep.j4 \
        ./build/bench/fig04_speedup > build/fig04.j4
    cmp build/fig04.j1 build/fig04.j4
    echo "fig04_speedup output is byte-identical across thread counts"
}

leg_journal() {
    echo "=== journal gate (every journaled sweep cell finished ok) ==="
    python3 scripts/check_bench.py \
        --journal build/sweep.j1/fig04_speedup.journal.jsonl
}

leg_mobile() {
    echo "=== mobile tier smoke (fig_mobile, BVL_JOBS=1 vs 4 + gates) ==="
    rm -rf build/mobile.j1 build/mobile.j4
    BVL_SCALE=tiny BVL_JOBS=1 BVL_SWEEP_DIR=build/mobile.j1 \
        BVL_MOBILE_OUT=build/mobile.json \
        ./build/bench/fig_mobile > build/fig_mobile.j1
    BVL_SCALE=tiny BVL_JOBS=4 BVL_SWEEP_DIR=build/mobile.j4 \
        ./build/bench/fig_mobile > build/fig_mobile.j4
    cmp build/fig_mobile.j1 build/fig_mobile.j4
    echo "fig_mobile output is byte-identical across thread counts"
    python3 scripts/check_bench.py \
        --journal build/mobile.j1/fig_mobile.journal.jsonl
    # Simulated time and VMU access-pattern counts are machine-independent,
    # so the default tight tolerance applies even on CI.
    python3 scripts/check_bench.py --mobile build/mobile.json
}

leg_trace() {
    echo "=== armed-trace determinism (BVL_TRACE_DIR, BVL_JOBS=1 vs 4) ==="
    rm -rf build/traces.j1 build/traces.j4 build/sweep.tj1 build/sweep.tj4
    mkdir -p build/traces.j1 build/traces.j4
    BVL_SCALE=tiny BVL_JOBS=1 BVL_TRACE_DIR=build/traces.j1 \
        BVL_SWEEP_DIR=build/sweep.tj1 \
        ./build/bench/fig04_speedup > build/fig04.traced.j1
    BVL_SCALE=tiny BVL_JOBS=4 BVL_TRACE_DIR=build/traces.j4 \
        BVL_SWEEP_DIR=build/sweep.tj4 \
        ./build/bench/fig04_speedup > build/fig04.traced.j4
    cmp build/fig04.j1 build/fig04.traced.j1   # tracing never perturbs
    diff <(cd build/traces.j1 && md5sum *.json) \
         <(cd build/traces.j4 && md5sum *.json)
    # The render must list instructions: "no matching instructions"
    # means the VCU track lost its dispatch/complete async pairs.
    python3 scripts/pipeview.py \
        "$(ls build/traces.j1/*_1b-4VL_saxpy.json | head -1)" \
        --track vcu --limit 5 > build/pipeview.vcu
    grep -Eq '^# [1-9][0-9]* instructions' build/pipeview.vcu
    echo "traces are byte-identical across thread counts"
}

leg_sweep() {
    echo "=== sweep-service crash safety (kill/resume, cache poisoning) ==="
    scripts/sweep_smoke.sh build build/sweep-smoke
}

leg_checkpoint() {
    echo "=== checkpoint save/restore + sampled determinism smoke ==="
    scripts/checkpoint_smoke.sh build build/ckpt-smoke
}

leg_chaos() {
    echo "=== I/O chaos smoke (fault injection across persistence stack) ==="
    scripts/chaos_smoke.sh build build/chaos-smoke
}

leg_sampled() {
    echo "=== sampled-accuracy gate (fig04 sampled vs full detail) ==="
    # Cycle error is machine-independent, so the 3% bound holds on any
    # host; wall-clock speedup is reported but never gated.
    BVL_SCALE=medium BVL_SAMPLED_OUT=build/sampled.json \
        ./build/bench/fig04_sampled | tee build/fig04_sampled.out
    python3 scripts/check_bench.py --sampled build/sampled.json
}

leg_microbench() {
    echo "=== kernel microbenchmark gate (Release) ==="
    cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-bench -j "$jobs" --target microbench_sim >/dev/null
    python3 scripts/check_bench.py --self-test
    ./build-bench/bench/microbench_sim \
        --benchmark_filter='BM_EventQueue|BM_TickChurn|BM_Stat|BM_CacheHitPath|BM_FastForwardStep' \
        --benchmark_min_time=0.1 \
        --benchmark_out=build-bench/microbench_ci.json \
        --benchmark_out_format=json
    python3 scripts/check_bench.py \
        --results build-bench/microbench_ci.json
}

leg_perf() {
    echo "=== benchmark self-test (runCell vs runWorkload, Release) ==="
    python3 perf/run.py --self-test
}

leg_forensics() {
    echo "=== forensics smoke (fatal plan -> report -> minimizer) ==="
    report=build/forensics_smoke.json
    rm -f "$report"
    ./build/examples/example_minimize_fault_plan "$report" \
        | tee build/forensics_smoke.log
    test -s "$report" || { echo "FAIL: no failure report at $report"; exit 1; }
    minimal=$(sed -n 's/^minimal injections: //p' build/forensics_smoke.log)
    if [ -z "$minimal" ] || [ "$minimal" -gt 2 ]; then
        echo "FAIL: minimizer did not converge (minimal='$minimal')"
        exit 1
    fi
    grep -q '^one-minimal: yes' build/forensics_smoke.log \
        || { echo "FAIL: minimized plan is not 1-minimal"; exit 1; }
    # Read the written report back (the loadReplayJob path): the plan
    # it records must minimize to the same injections.
    ./build/examples/example_minimize_fault_plan "$report" \
        | tee build/forensics_reload.log
    grep -q "^loading replay recipe from $report" build/forensics_reload.log \
        || { echo "FAIL: second run did not load the report"; exit 1; }
    kept() { grep -E '^(minimal injections: |  \[)' "$1"; }
    if [ "$(kept build/forensics_smoke.log)" != "$(kept build/forensics_reload.log)" ]; then
        echo "FAIL: the reloaded report minimized to a different plan"
        exit 1
    fi
    echo "forensics report written, reloaded, and plan minimized to $minimal injection(s)"
}

# Never-run lines of src/*.cc under tier-1 may not rise above this pin.
# Lower it whenever a change deletes or tests unrun code. Lines that
# only forked isolate workers run read as unrun (the workers leave
# through _exit, which skips gcov's dump); the pin absorbs them.
coverage_pin=559

leg_coverage() {
    echo "=== coverage (Debug --coverage, tier-1, never-run src/ lines) ==="
    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage >/dev/null
    cmake --build build-cov -j "$jobs"
    find build-cov -name '*.gcda' -delete
    ctest --test-dir build-cov --output-on-failure -j "$jobs"
    (cd build-cov/src/CMakeFiles/bvl.dir &&
        find . -name '*.gcda' -print0 | sort -z |
        xargs -0 gcov --json-format --stdout) > build-cov/gcov.jsonl
    python3 - build-cov/gcov.jsonl "$PWD/src/" "$coverage_pin" <<'EOF'
import collections, json, sys
path, src, pin = sys.argv[1], sys.argv[2], int(sys.argv[3])
# A line gcov lists more than once (one entry per template
# instantiation or inlined copy) is run if any entry ran.
ran = collections.defaultdict(dict)
for doc in open(path):
    for f in json.loads(doc)["files"]:
        name = f["file"]
        if not (name.startswith(src) and name.endswith(".cc")):
            continue
        seen = ran[name[len(src):]]
        for ln in f["lines"]:
            n = ln["line_number"]
            seen[n] = seen.get(n, False) or ln["count"] > 0
unrun = {f: sum(not r for r in ls.values()) for f, ls in ran.items()}
total = sum(unrun.values())
executable = sum(len(ls) for ls in ran.values())
for f in sorted(unrun, key=lambda f: (-unrun[f], f)):
    if unrun[f]:
        print(f"{unrun[f]:6d}  src/{f}")
print(f"never-run src/*.cc lines: {total} of {executable} "
      f"({100.0 * total / max(executable, 1):.1f}%), pin {pin}")
if total > pin:
    sys.exit(f"FAIL: {total} never-run lines exceed the pin of {pin}")
EOF
}

leg_asan() {
    echo "=== sanitized build (ASan + UBSan) ==="
    cmake -B build-asan -S . -DBVL_SANITIZE=address >/dev/null
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

leg_ubsan() {
    echo "=== undefined-behavior build (UBSan, checker + trace + workloads) ==="
    # The workloads label rides along here: the mobile tier's int8/int16
    # fixed-point arithmetic is exactly where signed-overflow or shift UB
    # would hide.
    cmake -B build-ubsan -S . -DBVL_SANITIZE=undefined >/dev/null
    cmake --build build-ubsan -j "$jobs"
    ctest --test-dir build-ubsan --output-on-failure -j "$jobs" \
          -L 'checker|trace|workloads'
}

leg_tsan() {
    echo "=== thread-sanitized build (TSan, concurrency tests) ==="
    cmake -B build-tsan -S . -DBVL_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$jobs"
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
          -L concurrency
}

for leg in "${legs[@]}"; do
    "leg_$leg"
done
echo "=== ci.sh: ${legs[*]}: all checks passed ==="
