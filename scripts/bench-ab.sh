#!/usr/bin/env bash
# scripts/bench-ab.sh — the same-session A/B of the benchmark of record
# (bench/README.md, "Claiming a gain"): parent commit against the working
# tree, alternating which side runs first, one pair per seed.
#
#   scripts/bench-ab.sh <parent-rev> [seed…]        # default seeds 1..10
#
# It clones <parent-rev> into a scratch directory, builds both `bench`
# binaries once, runs each from its own checkout root with
# `-seed N -trace 0`, prints `bench -compare` for every pair, and ends
# with one line per workload and end-to-end metric: the median over seeds
# of each side, the parent's interquartile range over seeds, and how many
# pairs the change won. A gain may be claimed when it won at least nine
# tenths of the pairs and the medians differ by more than that range; a
# row has regressed when the change's median is worse than the parent's
# by more than the metric's bound (the -compare table's own column), and
# any regressed row makes the script exit 1.
#
# About 2.5 minutes per seed (four workloads, two sides). Run nothing
# else meanwhile: the reference host has 2 vCPUs.
#
#   BENCH_AB_DIR  scratch directory (default ${TMPDIR:-/tmp}/tcc-bench-ab);
#                 each run makes its own run.XXXXXX directory under it and
#                 leaves its reports there as parent_N.json / change_N.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <parent-rev> [seed…]" >&2
  exit 2
fi
rev=$1
shift
seeds=("$@")
if [[ ${#seeds[@]} -eq 0 ]]; then
  seeds=(1 2 3 4 5 6 7 8 9 10)
fi

# Each run gets a new directory of its own under BENCH_AB_DIR; nothing
# that was there before is removed.
base=${BENCH_AB_DIR:-${TMPDIR:-/tmp}/tcc-bench-ab}
mkdir -p "$base"
dir=$(mktemp -d "$(cd "$base" && pwd)/run.XXXXXX")
echo "== reports in $dir" >&2
root=$PWD

git clone -q "$root" "$dir/parent"
git -C "$dir/parent" checkout -q "$rev"
(cd "$dir/parent" && go build -o "$dir/bench_parent" ./bench)
go build -o "$dir/bench_change" ./bench

# run <side> <checkout> <seed>: a failed invariant check fails the script.
run() {
  echo "== seed $3: $1" >&2
  (cd "$2" && "$dir/bench_$1" -seed "$3" -trace 0 -out "$dir/$1_$3.json" >"$dir/$1_$3.txt")
}

i=0
for s in "${seeds[@]}"; do
  if ((i++ % 2 == 0)); then
    run parent "$dir/parent" "$s"
    run change "$root" "$s"
  else
    run change "$root" "$s"
    run parent "$dir/parent" "$s"
  fi
  "$dir/bench_change" -compare "$dir/parent_$s.json" "$dir/change_$s.json" | tee "$dir/compare_$s.txt"
done

echo
echo "== medians over seeds ${seeds[*]} (parent $rev against the working tree)"
# The rows of every -compare table: workload metric better old spread new
# spread change bound verdict.
awk '
function median(a, n,    i, j, t) {
  for (i = 2; i <= n; i++)
    for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
  q1 = a[int((n + 3) / 4)]; q3 = a[int((3 * n + 1) / 4)]
  return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
$3 == "lower" || $3 == "higher" {
  key = $1 " " $2
  if (!(key in n)) order[++keys] = key
  i = ++n[key]; old[key, i] = $4; new[key, i] = $6; better[key] = $3; bound[key] = $9 / 100
  if ($4 != $6 && (($6 < $4) == ($3 == "lower"))) wins[key]++
  if ($4 == $6) ties[key]++
}
END {
  printf "%-16s%-16s%-8s%14s%14s%14s%8s%6s  %-9s  %s\n", "workload", "metric", "better", "parent", "parent IQR", "change", "wins", "ties", "claimable", "regressed"
  for (k = 1; k <= keys; k++) {
    key = order[k]; m = n[key]
    for (i = 1; i <= m; i++) { a[i] = old[key, i]; b[i] = new[key, i] }
    po = median(a, m); iqr = q3 - q1; pn = median(b, m)
    d = better[key] == "lower" ? po - pn : pn - po
    ok = (wins[key] >= 0.9 * m && d > iqr) ? "yes" : "no"
    bad = (-d > bound[key] * (po < 0 ? -po : po)) ? "yes" : "no"
    if (bad == "yes") regressed = 1
    split(key, wm, " ")
    printf "%-16s%-16s%-8s%14.6g%14.6g%14.6g%5d/%-2d%6d  %-9s  %s\n", wm[1], wm[2], better[key], po, iqr, pn, wins[key], m, ties[key], ok, bad
  }
  exit regressed
}' "$dir"/compare_*.txt
