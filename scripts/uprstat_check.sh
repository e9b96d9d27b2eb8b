#!/bin/sh
# uprstat contract checks: canonical-JSON round-trip stability, pretty
# printing of both accepted document shapes, diff semantics
# (identical -> exit 0, any changed entry -> exit 1 and a delta row),
# and the --paper views: the Table V and Fig 15 numbers match the fig11
# golden's counters; every view exits 0 on its committed golden and 1
# on a copy doctored to break one of its shape claims; a document
# without the cells a view reads, a failed cell, a zero denominator or
# an unknown view exits 2.
#
#   uprstat_check.sh <path-to-uprstat> <path-to-bench_harness> \
#                    <dir holding BENCH_{fig11,paper,sweep}.json>
set -u

if [ $# -ne 3 ]; then
    echo "usage: $0 <uprstat> <bench_harness> <golden dir>" >&2
    exit 2
fi

UPRSTAT=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
HARNESS=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
GOLDENS=$(cd "$3" && pwd)
GOLDEN=$GOLDENS/BENCH_fig11.json
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

# --paper shape claims: each view exits 0 on its golden, and 1 once one
# of its claims is broken.
python3 - "$UPRSTAT" "$GOLDENS" <<'EOF' || fail=1
import json, subprocess, sys
uprstat, goldens = sys.argv[1:]

def bump(c, w, v, key, to):
    """Cell (w, v)'s `key` ("group.name" if nested) := to(its value)."""
    *groups, leaf = key.split(".")
    cell = c[(w, v)]
    for g in groups:
        cell = cell[g]
    cell[leaf] = int(to(cell[leaf]))

def get(c, w, v, key):
    return c[(w, v)][key]

# view -> (section, edit breaking one of its claims)
cases = {
    "fig11": ("fig11", lambda c: bump(c, "RB", "HW", "cycles",
              lambda x: get(c, "RB", "Explicit", "cycles") + 1)),
    "fig13": ("fig11", lambda c: bump(c, "Hash", "HW", "branchMisses",
              lambda x: x * 1.02)),
    "fig15": ("fig11", lambda c: bump(c, "RB", "HW", "valbAccesses",
              lambda x: get(c, "RB", "HW", "storePs") + 1)),
    "table5": ("fig11", lambda c: bump(c, "LL", "SW", "absToRel",
               lambda x: 1)),
    "fig12": ("paper", lambda c: bump(c, "fig12", "HW-noreuse",
              "relToAbs", lambda x: x + 1)),
    "table2": ("paper", lambda c: bump(c, "table2", "FSM", "bytes",
               lambda x: x + 16)),
    "table3": ("paper", lambda c: bump(c, "table3", "LL", "nodeBytes",
               lambda x: 40)),
    "knn": ("paper", lambda c: bump(c, "knn", "HW", "correct",
            lambda x: x - 1)),
    "inference": ("paper", lambda c: bump(
        c, "inference", "refined", "staticRemainingSites",
        lambda x: get(c, "inference", "library", "staticRemainingSites"))),
    "optorder": ("paper", lambda c: bump(c, "optorder", "detach",
                 "faultRaised", lambda x: 0)),
    "txn": ("paper", lambda c: bump(c, "txn", "Volatile-txn", "cycles",
            lambda x: x + 1)),
    "bypass": ("paper", lambda c: bump(
        c, "bypass-mixed", "predicted", "cycles",
        lambda x: get(c, "bypass-mixed", "always", "cycles"))),
    "sens_cache": ("paper", lambda c: bump(c, "sens_cache", "HW",
                   "tiny.cycles", lambda x: x * 1.2)),
    "fig14": ("sweep", lambda c: bump(
        c, "Splay", "HW-valb50", "cycles",
        lambda x: get(c, "Splay", "HW-valb1", "cycles") * 1.13)),
    "sens_memory": ("sweep", lambda c: bump(
        c, "RB", "HW-polb8", "cycles",
        lambda x: get(c, "RB", "HW-polb4", "cycles"))),
}
ok = True
for view, (section, edit) in cases.items():
    golden = f"{goldens}/BENCH_{section}.json"
    d = json.load(open(golden))
    edit({(c["workload"], c["version"]): c for c in d["cells"]})
    json.dump(d, open(f"doctored-{view}.json", "w"))
    for path, want in ((golden, 0), (f"doctored-{view}.json", 1)):
        got = subprocess.run([uprstat, "--paper", view, path],
                             capture_output=True).returncode
        if got != want:
            print(f"FAIL: uprstat --paper {view} {path} exited {got}, "
                  f"expected {want}", file=sys.stderr)
            ok = False
sys.exit(0 if ok else 1)
EOF

# --paper refuses what it cannot render faithfully.
python3 - "$GOLDEN" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
def save(name, cells):
    json.dump(dict(d, cells=cells), open(name, "w"))
# Table V reads the SW cells; drop LL's.
save("missing.json", d["cells"][:1] + d["cells"][2:])
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
            "fig12 $GOLDEN" "nosuchview $GOLDEN"; do
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
