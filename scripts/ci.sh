#!/bin/sh
# CI entry point:
#   1. full RelWithDebInfo build + complete test suite, then the
#      suite again under `--repeat until-fail:3` (every test must pass
#      three runs in a row under -j: flakiness is a failure);
#   2. ASan+UBSan build (cmake --preset asan) + the crash, compiler,
#      obs, fault, txn, exec and concurrent test labels — the suites
#      that exercise raw-memory recovery paths, deliberately corrupted
#      pool images, both transaction engines' log replay, the
#      parser/verifier/interpreter, the direct-threaded execution
#      tier's raw-window fast path, and the sharded multi-threaded
#      runtime, where memory bugs would hide; then a ThreadSanitizer
#      build (cmake --preset tsan) running the concurrent label's
#      real-thread suites (the deterministic single-driver MtCrashSweep
#      is excluded there — it has no cross-thread races to find and
#      TSan multiplies its wall time);
#   3. clang-tidy over the compiler subsystem, if available;
#   4. every bench section's exact counters vs its BENCH_*.json golden,
#      and every `uprstat --paper` view's shape claims over the fresh
#      fig11, paper and sweep files;
#   4p. the repository benchmark's oracles: one short run of every
#      perfbench workload (table replays, crash-image recovery, exact
#      counter repeats), failing on any non-zero exit;
#   4pt. one 1-second kv_read_latest perfbench run built with
#      ThreadSanitizer (its own build directory): the one place the
#      timing model's companion runs inside perfbench itself; every
#      oracle must pass, TSan must stay silent, and with four or more
#      CPUs both companion stages (threads upr-model-mem and
#      upr-model-clk) must be seen running;
#   5. observability overhead gate: with event tracing compiled in,
#      a traced run and an untraced run of the quick bench must agree
#      on every simulated counter (tracing observes the model, never
#      perturbs it) and stay within 2% wall of each other.
#
# Usage: scripts/ci.sh [jobs]
set -eu

JOBS=${1:-$(nproc 2>/dev/null || echo 4)}
cd "$(dirname "$0")/.."

echo "==> tier 1: full build + full test suite"
cmake --preset default
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

echo "==> tier 1r: full test suite, repeated until-fail:3"
ctest --preset default -j "$JOBS" --repeat until-fail:3

echo "==> tier 2: ASan+UBSan build + crash/compiler labels"
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"

echo "==> tier 2t: TSan build + concurrent label"
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan -j "$JOBS"

echo "==> tier 3: clang-tidy (best effort)"
scripts/run_clang_tidy.sh || exit 1

echo "==> tier 3p: persistency lint exit codes over the IR corpus"
for ir in tests/ir_corpus/*.ir; do
    exp=$(sed -n 's/^exit=//p' "${ir%.ir}.expect")
    got=0
    build/tools/uprlint --persistency "$ir" > /dev/null 2>&1 || got=$?
    if [ "$got" != "$exp" ]; then
        echo "ci: uprlint --persistency $ir exited $got," \
             "expected $exp" >&2
        exit 1
    fi
done
echo "persistency: $(ls tests/ir_corpus/*.ir | wc -l) fixtures," \
     "exit codes match"

# Every bench section's exact keys vs its golden, at full scale (a
# stray UPR_BENCH_SCALE is dropped): fault-sweep tallies, txn-engine
# fence accounting, execution-tier invariance and speedup, the
# concurrent KV store's schedule independence, static-analysis
# counts, the fig11 grid + micro-op counters (the host-side lookup
# structures every simulated access probes must not move one modeled
# cycle), and the rest of the paper's evaluation (paper, sweep), whose
# views must still show the shapes EXPERIMENTS.md states. Wall time is
# not gated.
echo "==> tier 4: every bench section vs its golden"
BENCH_OUT=$(mktemp -d)
for s in fault txn exec concurrent static fig11 micro paper sweep; do
    env -u UPR_BENCH_SCALE build/bench/bench_harness --only "$s" \
        --jobs "$JOBS" --out "$BENCH_OUT" > /dev/null
    python3 scripts/bench_diff.py --wall-threshold 100000 \
        "BENCH_$s.json" "$BENCH_OUT/BENCH_$s.json"
    case $s in
      fig11|paper|sweep)
        scripts/paper_views.sh build/tools/uprstat "$BENCH_OUT/BENCH_$s.json"
        ;;
    esac
done
rm -rf "$BENCH_OUT"

echo "==> tier 4p: perfbench oracle smoke"
for w in kv_read_latest kv_update_durable ir_exec; do
    out=$(python3 perfbench/run.py --workload "$w" --seed 1 \
        --seconds 1 --trace 0 2>&1) || {
        echo "$out" >&2
        echo "ci: perfbench $w failed" >&2
        exit 1
    }
    echo "perfbench $w: every oracle passed"
done

echo "==> tier 4pt: perfbench kv_read_latest under ThreadSanitizer"
TSAN_BENCH="$(pwd)/.bench_build_tsan"
TSAN_LOG=$(mktemp)
CARGO_TARGET_DIR="$TSAN_BENCH" \
    CXXFLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    LDFLAGS="-fsanitize=thread" TSAN_OPTIONS="halt_on_error=1" \
    python3 perfbench/run.py --workload kv_read_latest --seed 1 \
    --seconds 1 --trace 0 >"$TSAN_LOG" 2>&1 &
run=$!
# With four or more CPUs the timing model runs as its two-stage
# companion: watch the benchmark's thread names until both stages
# are seen live at once.
both=""
while kill -0 "$run" 2>/dev/null; do
    if [ -z "$both" ]; then
        pid=$(pgrep -f "^$TSAN_BENCH/perfbench/uprbench" | head -n 1 || true)
        if [ -n "$pid" ]; then
            names=$(cat /proc/"$pid"/task/*/comm 2>/dev/null || true)
            case $names in
              *upr-model-mem*)
                case $names in *upr-model-clk*) both=yes ;; esac ;;
            esac
        fi
    fi
    sleep 0.05
done
status=0
wait "$run" || status=$?
out=$(cat "$TSAN_LOG")
rm -f "$TSAN_LOG"
if [ "$status" -ne 0 ]; then
    echo "$out" >&2
    echo "ci: perfbench kv_read_latest failed under TSan" >&2
    exit 1
fi
if echo "$out" | grep -q "WARNING: ThreadSanitizer"; then
    echo "$out" >&2
    echo "ci: ThreadSanitizer reported a race in perfbench" >&2
    exit 1
fi
if [ "$(nproc)" -ge 4 ] && [ -z "$both" ]; then
    echo "ci: the two-stage timing model never ran in perfbench" >&2
    exit 1
fi
echo "perfbench kv_read_latest (TSan): every oracle passed, no report," \
    "two model stages seen: ${both:-no}"

echo "==> tier 5: observability overhead gate"
GATE_OUT=$(mktemp -d)
trap 'rm -rf "$GATE_OUT"' EXIT

# 5a. Zero counter drift: a traced quick run and an untraced quick run
# must agree on every simulated counter and metrics summary (tracing
# observes the model, never changes it). Wall is not gated here --
# quick-scale cells finish in ~1 ms, where wall time is pure noise --
# so the threshold is set out of reach and only bench_diff's hard
# drift error (exit 2) can fire.
mkdir -p "$GATE_OUT/off" "$GATE_OUT/on"
env -u UPR_OBS_TRACE build/bench/bench_harness \
    --quick --jobs "$JOBS" --out "$GATE_OUT/off" > /dev/null
UPR_OBS_TRACE=1 build/bench/bench_harness \
    --quick --jobs "$JOBS" --out "$GATE_OUT/on" > /dev/null
for f in BENCH_fig11.json BENCH_micro.json BENCH_static.json; do
    python3 scripts/bench_diff.py --wall-threshold 100000 \
        "$GATE_OUT/off/$f" "$GATE_OUT/on/$f"
done

# 5b. <2% overhead: full fig11 with tracing *enabled* must cost no
# more than 2% (median) over tracing disabled. Enabled does strictly
# more work than the disabled no-op branch, so passing this bounds
# the disabled overhead too. Methodology per docs/PERFORMANCE.md:
# children CPU time, not wall (shared CI boxes jitter wall well past
# 2%), adjacent off/on pairs so slow-machine drift cancels within a
# pair, and the median across pairs to shed outliers; four more
# pairs are added before failing.
python3 - "$GATE_OUT" "$JOBS" <<'EOF'
import os, statistics, subprocess, sys

base, jobs = sys.argv[1], sys.argv[2]

def cpu_of_run(out, trace):
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.pop("UPR_OBS_TRACE", None)
    if trace:
        env["UPR_OBS_TRACE"] = "1"
    t0 = os.times()
    subprocess.run(
        ["build/bench/bench_harness", "--only", "fig11",
         "--jobs", jobs, "--out", out],
        check=True, stdout=subprocess.DEVNULL, env=env)
    t1 = os.times()
    return ((t1.children_user + t1.children_system) -
            (t0.children_user + t0.children_system))

deltas = []

def measure_pairs(n):
    for _ in range(n):
        i = len(deltas)
        off = cpu_of_run(f"{base}/cpu-off{i}", False)
        on = cpu_of_run(f"{base}/cpu-on{i}", True)
        deltas.append(100.0 * (on - off) / off)
    med = statistics.median(deltas)
    print(f"tracing overhead (enabled vs disabled, median of "
          f"{len(deltas)} cpu-time pairs): {med:+.2f}% (gate +2%)")
    return med

med = measure_pairs(5)
if med > 2.0:
    print("ci: over gate; adding four more interleaved pairs")
    med = measure_pairs(4)
sys.exit(0 if med <= 2.0 else 1)
EOF

echo "ci: all stages passed"
