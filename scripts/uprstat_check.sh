#!/bin/sh
# uprstat contract checks: canonical-JSON round-trip stability, pretty
# printing of both accepted document shapes, diff semantics
# (identical -> exit 0, any changed entry -> exit 1 and a delta row),
# and the --paper views: the Table V and Fig 15 numbers match the fig11
# golden's counters; a document that is not a complete fig11 grid, a
# failed cell or a zero denominator exits 2.
#
#   uprstat_check.sh <path-to-uprstat> <path-to-bench_harness> \
#                    <path-to-BENCH_fig11.json>
set -u

if [ $# -ne 3 ]; then
    echo "usage: $0 <uprstat> <bench_harness> <BENCH_fig11.json>" >&2
    exit 2
fi

UPRSTAT=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
HARNESS=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
GOLDEN=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
WORK=$(mktemp -d) || exit 2
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 2
fail=0

# A real bench document (micro section only: milliseconds of work).
if ! "$HARNESS" --quick --only micro --jobs 2 --out . > /dev/null; then
    echo "FAIL: bench_harness --quick --only micro" >&2
    exit 1
fi

# A snapshot-shaped document, as MetricsSnapshot::toJson() emits.
cat > snap.json <<'EOF'
{
  "counters": {
    "core.loads": 18446744073709551615,
    "upr.dynamicChecks": 42
  },
  "histograms": {
    "upr.checkCycles": {"count": 42, "sum": 126, "min": 3, "max": 3,
                        "p50": 3, "p90": 3, "p99": 3}
  }
}
EOF

for doc in BENCH_micro.json snap.json; do
    # Round trip: dump(parse(x)) is stable under a second pass.
    "$UPRSTAT" --json "$doc" > rt1.json || fail=1
    "$UPRSTAT" --json rt1.json > rt2.json || fail=1
    if ! cmp -s rt1.json rt2.json; then
        echo "FAIL: $doc: canonical form not byte-stable" >&2
        fail=1
    fi
    # Pretty print succeeds and is non-empty.
    if ! "$UPRSTAT" "$doc" | grep -q .; then
        echo "FAIL: $doc: empty pretty output" >&2
        fail=1
    fi
    # Self-diff: identical, exit 0.
    if ! "$UPRSTAT" --diff "$doc" "$doc" > /dev/null; then
        echo "FAIL: $doc: self-diff not clean" >&2
        fail=1
    fi
done

# Exact 64-bit round trip: 2^64-1 must survive parse -> dump.
if ! grep -q 18446744073709551615 rt1.json; then
    echo "FAIL: uint64 max corrupted by round trip" >&2
    fail=1
fi

# A changed value must be reported and flip the exit code.
sed 's/"p50": 3/"p50": 7/' snap.json > snap2.json
"$UPRSTAT" --diff snap.json snap2.json > diff.out
if [ $? -ne 1 ]; then
    echo "FAIL: diff of differing docs should exit 1" >&2
    fail=1
fi
if ! grep -q "upr.checkCycles.p50" diff.out; then
    echo "FAIL: diff did not name the changed entry" >&2
    cat diff.out >&2
    fail=1
fi

# --paper: every number of the Table V and Fig 15 views, recomputed
# from the golden's cells.
for view in table5 fig15; do
    if ! "$UPRSTAT" --paper $view "$GOLDEN" > $view.out; then
        echo "FAIL: uprstat --paper $view exited non-zero" >&2
        fail=1
    fi
done
python3 - "$GOLDEN" <<'EOF' || fail=1
import json, sys
cells = {(c["workload"], c["version"]): c
         for c in json.load(open(sys.argv[1]))["cells"]}
rows = list(dict.fromkeys(w for w, _ in cells))

def table(path, title):
    """The table under the line starting @title: row -> numbers."""
    lines = open(path).read().split("\n")
    i = next(n for n, l in enumerate(lines) if l.startswith(title)) + 2
    out = {}
    while i < len(lines) and lines[i].strip():
        tok = lines[i].split()
        out[tok[0]] = [float(t.rstrip("%")) for t in tok[1:]]
        i += 1
    return out

ok = True
def check(view, row, got, want):
    global ok
    if len(got) != len(want) or any(abs(g - w) > 5e-4
                                     for g, w in zip(got, want)):
        print(f"FAIL: --paper {view} {row}: {got} != {want}",
              file=sys.stderr)
        ok = False

sw = table("table5.out", "Table V")
hw = table("table5.out", "(HW version")
f15 = table("fig15.out", "Figure 15")
for w in rows:
    s, h = cells[(w, "SW")], cells[(w, "HW")]
    check("table5", w, sw.get(w, []),
          [s["dynamicChecks"], s["absToRel"], s["relToAbs"]])
    check("table5", w, hw.get(w, []), [h["absToRel"], h["relToAbs"]])
    t = h["memAccesses"]
    check("fig15", w, f15.get(w, []),
          [t] + [round(100 * h[k] / t, 3)
                 for k in ("storePs", "valbAccesses", "polbAccesses")])
if list(sw) != rows or list(f15) != rows + ["mean"]:
    print("FAIL: --paper rows differ from the golden's", file=sys.stderr)
    ok = False
sys.exit(0 if ok else 1)
EOF

# --paper refuses what it cannot render faithfully.
python3 - "$GOLDEN" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
def save(name, cells):
    json.dump(dict(d, cells=cells), open(name, "w"))
save("missing.json", d["cells"][1:])
cells = [dict(c) for c in d["cells"]]
cells[2] = {"workload": cells[2]["workload"],
            "version": cells[2]["version"], "wallMs": 1.0,
            "error": "cell process died without reporting"}
save("failed.json", cells)
cells = [dict(c) for c in d["cells"]]
cells[0]["cycles"] = 0
save("zero.json", cells)
EOF
for case in "fig11 BENCH_micro.json" "fig11 snap.json" \
            "table5 missing.json" "fig15 failed.json" "fig11 zero.json" \
            "fig12 $GOLDEN"; do
    # shellcheck disable=SC2086
    "$UPRSTAT" --paper $case > /dev/null 2>&1
    got=$?
    if [ "$got" -ne 2 ]; then
        echo "FAIL: uprstat --paper $case exited $got, expected 2" >&2
        fail=1
    fi
done

[ "$fail" -eq 0 ] && echo "uprstat: OK"
exit "$fail"
