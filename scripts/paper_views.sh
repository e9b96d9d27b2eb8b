#!/bin/sh
# Render every `uprstat --paper` view of bench files and check their
# shape claims (EXPERIMENTS.md). Exits 0 when every view does, else
# with the first failing view's status (1: a shape claim no longer
# holds, 2: the file cannot be rendered), after printing its output.
#
#   paper_views.sh <uprstat> BENCH_{fig11,paper,sweep}.json...
set -u
uprstat=$1
shift
for f in "$@"; do
    case $(basename "$f") in
      BENCH_fig11.json) views="fig11 fig13 fig15 table5" ;;
      BENCH_paper.json) views="fig12 table2 table3 knn inference optorder txn bypass sens_cache" ;;
      BENCH_sweep.json) views="fig14 sens_memory" ;;
      *) echo "paper_views: no views read $f" >&2; exit 2 ;;
    esac
    for v in $views; do
        out=$("$uprstat" --paper "$v" "$f" 2>&1) || {
            st=$?
            echo "$out"
            echo "paper_views: uprstat --paper $v $f exited $st" >&2
            exit "$st"
        }
    done
    echo "paper_views: $f: $views: every shape claim holds"
done
