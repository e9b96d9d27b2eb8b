#!/bin/sh
# bench_diff exit-code contract over a live bench document: identical
# files -> 0, any changed exact key -> 2 (whatever its name), a wall
# regression -> 1, a missing or mismatched exactKeys header -> 2, a
# model/native exec tier mismatch -> 2, inputs that cannot be compared
# (unreadable, not a harness file, duplicate cell, benchScale
# mismatch) -> 2; and bench_harness's own CLI rejections (exit 2 with
# usage).
#
#   bench_diff_check.sh <path-to-bench_harness>
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 <bench_harness>" >&2
    exit 2
fi

HARNESS=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
DIFF=$(cd "$(dirname "$0")" && pwd)/bench_diff.py
WORK=$(mktemp -d) || exit 2
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 2
fail=0

# A real bench document (micro section only: milliseconds of work).
if ! "$HARNESS" --quick --only micro --jobs 2 --out . > /dev/null; then
    echo "FAIL: bench_harness --quick --only micro" >&2
    exit 1
fi

# edit SRC DST PYTHON: DST = SRC with the JSON document `d` edited.
edit() {
    python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
src, dst, code = sys.argv[1:]
d = json.load(open(src))
exec(code)
json.dump(d, open(dst, "w"), indent=2)
EOF
}

# expect CODE WHAT OLD NEW: bench_diff OLD NEW exits CODE.
expect() {
    python3 "$DIFF" "$3" "$4" > out.txt 2>&1
    got=$?
    if [ "$got" -ne "$1" ]; then
        echo "FAIL: $2: bench_diff exited $got, expected $1" >&2
        cat out.txt >&2
        fail=1
    fi
}

B=BENCH_micro.json
expect 0 "identical files" $B $B

edit $B cycles.json 'd["cells"][0]["cycles"] += 1'
expect 2 "changed counter" $B cycles.json

edit $B hist.json 'd["cells"][5]["metrics"]["checkCycles"]["p99"] += 1'
expect 2 "changed nested exact key" $B hist.json

# A key no section reports today: exactKeys alone makes it gated.
edit $B widgets.json '
d["exactKeys"].append("widgets")
for c in d["cells"]: c["widgets"] = 7'
edit widgets.json widgets2.json 'd["cells"][3]["widgets"] = 8'
expect 0 "new exact key, same value" widgets.json widgets.json
expect 2 "new exact key, changed value" widgets.json widgets2.json

edit $B wall.json '
for c in d["cells"]: c["wallMs"] *= 1.5
d["harnessWallMs"] *= 1.5'
expect 1 "wall +50%" $B wall.json

edit $B nokeys.json 'del d["exactKeys"]'
expect 2 "no exactKeys (new)" $B nokeys.json
expect 2 "no exactKeys (old)" nokeys.json $B

edit $B fewer.json 'd["exactKeys"].remove("reuseHits")'
expect 2 "mismatched exactKeys" $B fewer.json

# Inputs that cannot be compared are usage errors, never a wall flag.
expect 2 "unreadable file" $B missing.json
echo '{"schema": 2}' > nocells.json
expect 2 "not a harness file" $B nocells.json
edit $B dup.json 'd["cells"].append(dict(d["cells"][0]))'
expect 2 "duplicate cell" $B dup.json
edit $B scale.json 'd["benchScale"] = d["benchScale"] + 1'
expect 2 "benchScale mismatch" $B scale.json

# Exec tier contract: model and native cells of one workload must
# agree on checksum, dynamicChecks and irInstructions.
cat > exec.json <<'EOF'
{"schema": 2, "benchScale": 1, "exactKeys": ["checksum"],
 "cells": [
  {"workload": "w", "version": "model", "wallMs": 1, "checksum": 5,
   "dynamicChecks": 3, "irInstructions": 9},
  {"workload": "w", "version": "native", "wallMs": 1, "checksum": 5,
   "dynamicChecks": 3, "irInstructions": 9}]}
EOF
edit exec.json tier.json '
d["cells"][0]["irInstructions"] = 10
d["cells"][1]["irInstructions"] = 10
d["cells"][1]["dynamicChecks"] = 4'
expect 0 "exec tiers agree" exec.json exec.json
expect 2 "exec tier mismatch" exec.json tier.json

# bench_harness CLI: malformed input is a usage error, never a run.
for args in "--jobs abc" "--jobs 0" "--jobs 2x" "--jobs -1" \
            "--only bogus" "--only micro --only static" "--only"; do
    # shellcheck disable=SC2086
    "$HARNESS" $args --out . > /dev/null 2> err.txt
    got=$?
    if [ "$got" -ne 2 ] || ! grep -q usage err.txt; then
        echo "FAIL: bench_harness $args: exit $got, expected 2 with usage" >&2
        fail=1
    fi
done

[ "$fail" -eq 0 ] && echo "bench_diff: OK"
exit "$fail"
