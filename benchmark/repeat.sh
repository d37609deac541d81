#!/usr/bin/env bash
# Run the full benchmark (every workload, untraced then traced) twice on
# this commit and compare: per workload and metric both values, their
# ratio, and for end-to-end metrics pass/fail against the metric's bound.
#
# usage: benchmark/repeat.sh [seed-of-first-set [seed-of-second-set]]
# The output of this script for the commit that introduced the benchmark
# is kept in benchmark/out/repeat-baseline.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
first=${1:-1}
second=${2:-$first}

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/rbench"

echo "# host: $(nproc) cores; $(uname -sm); cpu flags:$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null |
    tr ' ' '\n' | grep -E '^(sse4_2|ssse3|avx|avx2|avx512f|pclmulqdq|neon|crc32)$' | tr '\n' ' ' || true)"
echo "# $("$bin" --fingerprint)"
echo "# git: $(git rev-parse --short HEAD 2>/dev/null || echo unknown)$(git diff --quiet 2>/dev/null || echo ' (modified tree)')"
echo "# set A: seed $first; set B: seed $second; $(grep -o '"run_seconds": [0-9]*' BENCHMARK.json) per run"

a=$(mktemp) b=$(mktemp)
trap 'rm -f "$a" "$b"' EXIT
"$bin" --seed "$first" 2>/dev/null | grep '^metric ' >"$a"
"$bin" --seed "$second" 2>/dev/null | grep '^metric ' >"$b"

awk -v spec=BENCHMARK.json '
BEGIN {
    while ((getline line < spec) > 0)
        if (match(line, /"name": "[^"]+"/) && match(line, /"bound": [0-9.]+/)) {
            bound_text = substr(line, RSTART + 9, RLENGTH - 9)
            match(line, /"name": "[^"]+"/)
            bound[substr(line, RSTART + 9, RLENGTH - 10)] = bound_text + 0
        }
    printf "%-15s %-36s %14s %14s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "within bound"
}
NR == FNR { first[$2 " " $3] = $4; next }
{
    key = $2 " " $3
    ratio = (first[key] != 0) ? $4 / first[key] : ($4 == 0 ? 1 : 0)
    verdict = ""
    if ($3 in bound) {
        off = ratio > 1 ? ratio - 1 : 1 - ratio
        verdict = (off <= bound[$3]) ? "pass (" bound[$3] ")" : "FAIL (" bound[$3] ")"
        if (off > bound[$3]) failed++
    }
    printf "%-15s %-36s %14.6g %14.6g %7.3f  %s\n", $2, $3, first[key], $4, ratio, verdict
}
END {
    print (failed ? "# " failed " end-to-end metric(s) differ by more than their bound" : "# every end-to-end metric agrees within its bound")
    exit failed > 0
}' "$a" "$b"
