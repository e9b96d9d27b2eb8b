#!/bin/sh
# CI entry point:
#   1. full RelWithDebInfo build + complete test suite;
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
#   4. observability overhead gate: with event tracing compiled in,
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

echo "==> tier 4: hostile-media fault sweep vs golden"
FAULT_OUT=$(mktemp -d)
build/bench/bench_harness --fault-only --out "$FAULT_OUT" > /dev/null
python3 scripts/bench_diff.py --wall-threshold 100000 \
    BENCH_fault.json "$FAULT_OUT/BENCH_fault.json"
rm -rf "$FAULT_OUT"

echo "==> tier 4t: txn-engine fence accounting vs golden"
TXN_OUT=$(mktemp -d)
build/bench/bench_harness --txn-only --out "$TXN_OUT" > /dev/null
python3 scripts/bench_diff.py --wall-threshold 100000 \
    BENCH_txn.json "$TXN_OUT/BENCH_txn.json"
rm -rf "$TXN_OUT"

echo "==> tier 4x: execution-tier invariance + speedup vs golden"
EXEC_OUT=$(mktemp -d)
build/bench/bench_harness --exec-only --out "$EXEC_OUT" > /dev/null
python3 scripts/bench_diff.py --wall-threshold 100000 \
    BENCH_exec.json "$EXEC_OUT/BENCH_exec.json"
rm -rf "$EXEC_OUT"

echo "==> tier 4c: concurrent KV store schedule independence vs golden"
CONC_OUT=$(mktemp -d)
build/bench/bench_harness --concurrent-only --out "$CONC_OUT" > /dev/null
python3 scripts/bench_diff.py --wall-threshold 100000 \
    BENCH_concurrent.json "$CONC_OUT/BENCH_concurrent.json"
rm -rf "$CONC_OUT"

# The host-side lookup structures every simulated access probes (cache
# and TLB arrays, POLB, the pending-storeP table) must not move one
# modeled cycle: the full-scale fig11 grid and the micro-op cells must
# match their goldens counter for counter (full scale, so a stray
# UPR_BENCH_SCALE is dropped). Wall time is not gated.
echo "==> tier 4f: fig11 grid + micro-op counters vs golden"
FIG_OUT=$(mktemp -d)
env -u UPR_BENCH_SCALE build/bench/bench_harness --fig11-only \
    --jobs "$JOBS" --out "$FIG_OUT" > /dev/null
env -u UPR_BENCH_SCALE build/bench/bench_harness --micro-only \
    --out "$FIG_OUT" > /dev/null
for f in BENCH_fig11.json BENCH_micro.json; do
    python3 scripts/bench_diff.py --wall-threshold 100000 \
        "$f" "$FIG_OUT/$f"
done
rm -rf "$FIG_OUT"

echo "==> tier 5: observability overhead gate"
GATE_OUT=$(mktemp -d)
trap 'rm -rf "$GATE_OUT"' EXIT

# 4a. Zero counter drift: a traced quick run and an untraced quick run
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

# 4b. <2% overhead: full fig11 with tracing *enabled* must cost no
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
        ["build/bench/bench_harness", "--fig11-only",
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
