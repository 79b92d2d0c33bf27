#!/usr/bin/env bash
# Line-coverage gate for one source directory, built on plain gcov (the CI
# image carries no gcovr; the awk is mawk-compatible).  Usage:
#
#   tools/line_coverage.sh <coverage-build-dir> <source-dir> <min-line-pct>
#
# for example `tools/line_coverage.sh build src/tier 85`.  Expects the
# build to have been configured with -DLOWDIFF_COVERAGE=ON and the test
# suite to have run (ctest -L tier1), so .gcda data files exist.  Runs
# `gcov -n` over every object built from <source-dir>, aggregates "Lines
# executed" across files that live under <source-dir> (sources and
# headers), prints a per-file table, and exits nonzero when the aggregate
# line coverage falls below the floor.
#
# The floors live in the CI workflow next to their measured values; raise
# one when coverage rises, never lower it to make a regression pass.
set -euo pipefail

usage="usage: line_coverage.sh <coverage-build-dir> <source-dir> <min-line-pct>"
build_dir=${1:?$usage}
src_dir=${2:?$usage}
min_pct=${3:?$usage}
src_dir=${src_dir%/}/

gcda_list=$(find "$build_dir" -path "*/$src_dir*" -name '*.gcda' | sort)
if [[ -z "$gcda_list" ]]; then
  echo "line_coverage: no .gcda files under $build_dir/$src_dir —" \
       "configure with -DLOWDIFF_COVERAGE=ON and run the tests first" >&2
  exit 2
fi

# gcov emits, per source it touched:   File '<path>'
#                                      Lines executed:NN.NN% of MM
# Keep only files under the source directory (the gate's subject; the same
# objects also pull in headers from common/ etc., which other gates own).
# The same header shows up once per including object — keep the best view
# of each file (a line is covered if any object covered it).
rows=$(echo "$gcda_list" | xargs gcov -n 2>/dev/null | awk -v dir="$src_dir" '
  /^File / {
    file = $0
    sub(/^File .'\''/, "", file); sub(/'\''$/, "", file)
    file = "/" file  # so a relative path matches too
    at = index(file, "/" dir)
    next
  }
  /^Lines executed:/ && at > 0 {
    pct = $0; sub(/^Lines executed:/, "", pct); sub(/% of .*/, "", pct)
    n = $NF
    key = substr(file, at + 1)
    if (!(key in best_n) || pct * n > best_pct[key] * best_n[key]) {
      best_pct[key] = pct; best_n[key] = n
    }
    at = 0
  }
  END {
    for (k in best_n) printf "%s %d %.2f\n", k, best_n[k], best_pct[k]
  }' | sort)

if [[ -z "$rows" ]]; then
  echo "line_coverage: gcov reported no $src_dir lines" >&2
  exit 2
fi

printf '%-52s %8s %8s\n' "$src_dir file" "lines" "cover%"
echo "$rows" | awk '{ printf "%-52s %8d %7.2f%%\n", $1, $2, $3 }'
echo "$rows" | awk -v floor="$min_pct" -v dir="$src_dir" '
  { total += $2; covered += $2 * $3 / 100.0 }
  END {
    agg = 100.0 * covered / total
    printf "%-52s %8d %7.2f%%  (floor %.1f%%)\n", "TOTAL", total, agg, floor
    if (agg < floor) {
      printf "line_coverage: FAILED — %s at %.2f%% < %.1f%% floor\n", dir, agg, floor > "/dev/stderr"
      exit 1
    }
  }'
