#!/usr/bin/env bash
# The no-regression gate: run the benchmark BENCHMARK.json declares on a
# base tree and on this tree in alternating pairs, and judge every
# end-to-end metric@workload against the metric's bound.
#
# usage: .github/scripts/bench-gate.sh <base> [pairs]
#   base   a git ref (checked out with `git worktree add`, removed on
#          exit) or a directory that already holds the base tree
#   pairs  base/change pairs per workload (default 4); pair i runs both
#          sides at seed i, odd pairs base first, even pairs change first
#
# Both trees are built and run with BENCHMARK.json's `command` for
# `run_seconds` per run; workloads, metrics, directions and bounds are
# read from this tree's BENCHMARK.json. Per metric@workload it prints
# both medians, change/base, how much worse the change's median is, the
# wider side's quartile spread, and a verdict:
#   pass        not worse than the base by more than the bound
#   FAIL        worse by more than the bound
#   unresolved  within the bound, but the runs spread wider than the
#               bound and the change's runs are not all at least as good
#               as every base run: the pairs cannot tell
# Every run is listed with its seed, order, exit status and failed
# count; raw outputs stay under target/bench-gate/. Exits non-zero on a
# FAIL, on any failed operation, on a run that did not report correct or
# on a metric a side never printed.
#
# Then, to show which layer moved, one traced run (`--trace 1`, seed 1)
# per side per workload, and every per-layer probe BENCHMARK.json lists
# printed side by side: base, change, change/base and the direction that
# is better. One run a side, so no verdict — attribution, not judgement.
set -euo pipefail
cd "$(dirname "$0")/../.."
[ $# -ge 1 ] || { echo "usage: $0 <base-ref|base-dir> [pairs]" >&2; exit 2; }
base=$1
pairs=${2:-4}
spec=BENCHMARK.json
out=target/bench-gate
mkdir -p "$out"
rm -f "$out"/run-*.txt "$out"/trace-*.txt

if [ -d "$base" ]; then
    base_dir=$(cd "$base" && pwd)
else
    base_dir=$PWD/$out/base
    git worktree remove --force "$base_dir" 2>/dev/null || true
    git worktree add --detach "$base_dir" "$base" >/dev/null
    trap 'git worktree remove --force "$base_dir"' EXIT
fi

# BENCHMARK.json keeps `command`, each workload and each metric on one
# line, which is all the parsing below relies on.
read -r -a cmd <<<"$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' "$spec" | tr -d '",')"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")
workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$spec")

run_in() { (cd "$1" && shift && "${cmd[@]}" "$@"); }

# `--fingerprint` is the build step: the command compiles, then prints.
base_fp=$(run_in "$base_dir" --fingerprint)
change_fp=$(run_in "$PWD" --fingerprint)
echo "# host: $(nproc) cores; $(uname -sm)"
echo "# base:   $base ($(git -C "$base_dir" rev-parse --short HEAD 2>/dev/null || echo 'no git')); $base_fp"
echo "# change: $(git rev-parse --short HEAD)$(git diff --quiet HEAD 2>/dev/null || echo ' (modified tree)'); $change_fp"
echo "# $pairs pairs per workload, ${seconds}s per run"

# One run: raw output to $out/run-<workload>-<side>-<pair>.txt, one
# `run` line to stdout.
one_run() { # workload side pair position
    local dir=$PWD file="$out/run-$1-$2-$3.txt" status=0
    [ "$2" = base ] && dir=$base_dir
    run_in "$dir" --workload "$1" --seed "$3" --seconds "$seconds" --trace 0 >"$file" 2>/dev/null || status=$?
    local failed correct
    failed=$(sed -n 's/^{"correct": [a-z]*, "attempted": [0-9]*, "failed": \([0-9]*\),.*/\1/p' "$file")
    correct=$(sed -n 's/^{"correct": \([a-z]*\),.*/\1/p' "$file")
    echo "run $1 $2 seed=$3 order=$4 exit=$status failed=${failed:-?} correct=${correct:-?}"
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            one_run "$w" base "$i" first; one_run "$w" change "$i" second
        else
            one_run "$w" change "$i" first; one_run "$w" base "$i" second
        fi
    done
done | tee "$out/runs.txt"

# `metric <workload> <name> <value> <unit>` lines, prefixed with the side.
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        for side in base change; do
            sed -n "s/^metric /$side /p" "$out/run-$w-$side-$i.txt"
        done
    done
done >"$out/metrics.txt"

awk -v spec="$spec" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
function quantile(a, n, p,    pos, lo) {
    pos = 1 + p * (n - 1); lo = int(pos)
    return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
# Fills sorted[], returns n; sets med and spread (quartile distance / median).
function load(side, key,    n, i, parts) {
    n = split(vals[side, key], parts, " ")
    for (i = 1; i <= n; i++) sorted[i] = parts[i] + 0
    sort(sorted, n)
    med = quantile(sorted, n, 0.5)
    spread = med != 0 ? (quantile(sorted, n, 0.75) - quantile(sorted, n, 0.25)) / med : 0
    lo = sorted[1]; hi = sorted[n]
    return n
}
BEGIN {
    while ((getline line < spec) > 0)
        if (match(line, /"bound": [0-9.]+/)) {
            b = substr(line, RSTART + 9, RLENGTH - 9) + 0
            match(line, /"name": "[^"]+"/); name = substr(line, RSTART + 9, RLENGTH - 10)
            bound[name] = b; higher[name] = (line ~ /"better": "higher"/); order[++metrics] = name
        }
}
FILENAME ~ /runs.txt$/ {
    if ($1 != "run") next
    if ($6 != "exit=0" || $7 != "failed=0" || $8 != "correct=true") { bad++; print "# bad run: " $0 }
    if (!($2 in seen)) { seen[$2]; workload[++workloads] = $2 }
    next
}
{ key = $2 " " $3; vals[$1, key] = vals[$1, key] " " $4 }
END {
    printf "\n%-15s %-22s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "base med", "change med", "chg/base", "worse", "spread", "bound", "verdict"
    for (w = 1; w <= workloads; w++) for (m = 1; m <= metrics; m++) {
        name = order[m]; key = workload[w] " " name
        nb = load("base", key); bm = med; bs = spread; blo = lo; bhi = hi
        nc = load("change", key); cm = med; cs = spread; clo = lo; chi = hi
        ratio = bm != 0 ? cm / bm : (cm == 0 ? 1 : 0)
        worse = higher[name] ? 1 - ratio : ratio - 1
        wide = bs > cs ? bs : cs
        all_as_good = higher[name] ? clo >= bhi : chi <= blo
        if (nb == 0 || nc == 0) { verdict = "missing"; bad++ }
        else if (worse > bound[name]) { verdict = "FAIL"; fails++ }
        else if (wide > bound[name] && !all_as_good) { verdict = "unresolved"; unresolved++ }
        else verdict = "pass"
        printf "%-15s %-22s %12.6g %12.6g %8.3f %+8.3f %8.3f %6.2f  %s\n", workload[w], name, bm, cm, ratio, worse, wide, bound[name], verdict
    }
    printf "\n# values per run, in seed order (base | change)\n"
    for (w = 1; w <= workloads; w++) for (m = 1; m <= metrics; m++) {
        key = workload[w] " " order[m]
        printf "%-15s %-22s%s |%s\n", workload[w], order[m], vals["base", key], vals["change", key]
    }
    printf "\n# %d FAIL, %d unresolved, %d bad run(s) or missing metric(s)\n", fails, unresolved, bad
    exit (fails > 0 || bad > 0)
}' "$out/runs.txt" "$out/metrics.txt" || verdict=$?

# Which layer moved: one traced run per side per workload.
for w in $workloads; do
    for side in base change; do
        dir=$PWD
        [ "$side" = base ] && dir=$base_dir
        run_in "$dir" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
            >"$out/trace-$w-$side.txt" 2>/dev/null || echo "# traced $w $side run exited non-zero"
    done
done
awk -v spec="$spec" -v workloads="$workloads" '
BEGIN {
    while ((getline line < spec) > 0)
        if (line ~ /"better"/ && line !~ /"bound"/) {
            match(line, /"name": "[^"]+"/); name = substr(line, RSTART + 9, RLENGTH - 10)
            probe[++probes] = name; better[name] = line ~ /"better": "higher"/ ? "higher" : "lower"
        }
    n = split(workloads, workload, /[ \n]+/)
}
FNR == 1 { side = FILENAME ~ /-base\.txt$/ ? "base" : "change" }
$1 == "metric" { val[side, $2, $3] = $4 }
END {
    printf "\n# per-layer probes: one traced run per side (seed 1); no verdict\n"
    printf "%-15s %-34s %12s %12s %8s  %s\n", "workload", "probe", "base", "change", "chg/base", "better"
    for (w = 1; w <= n; w++) for (p = 1; p <= probes; p++) {
        name = probe[p]; b = val["base", workload[w], name]; c = val["change", workload[w], name]
        ratio = (b != "" && c != "" && b + 0 != 0) ? sprintf("%.3f", c / b) : "-"
        printf "%-15s %-34s %12s %12s %8s  %s\n", workload[w], name, b == "" ? "-" : sprintf("%.6g", b), c == "" ? "-" : sprintf("%.6g", c), ratio, better[name]
    }
}' "$out"/trace-*-base.txt "$out"/trace-*-change.txt
exit "${verdict:-0}"
