#!/usr/bin/env bash
# A/B run of the clean-answer benchmark: this checkout against a base ref.
#
#   scripts/bench_ab.sh <base-ref> <workload> [pairs=10] [seconds=10] [args...]
#
# Checks <base-ref> out into a temporary git worktree, removed on exit, and
# alternates cleanbench/run.py runs between it and this checkout (working
# tree included), flipping which side goes first every pair. CARGO_TARGET_DIR
# is unset, so each checkout builds its own tree under its .bench_build/.
# Further arguments (e.g. --seed 7) pass through to run.py.
#
# Stops with an error as soon as a run fails or reports "correct": false or
# "failed" > 0. Prints, for every end-to-end metric BENCHMARK.json names:
# both medians, the ratio change/base, the change's wins and ties out of the
# pairs, the base's interquartile range and the metric's bound. A metric
# whose base IQR exceeds its bound (relative to the base median) cannot
# resolve a change of that size and prints as "unresolved"; otherwise the
# verdict is "worse" when the change's median is worse than the base's by
# more than the bound, else "ok". Each run's result line goes to stderr as
# it arrives. Writes nothing inside either checkout but their build trees.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '4p' "$0" | sed 's/^# *//' >&2
  exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}
shift $(($# < 4 ? $# : 4))

root=$(cd "$(dirname "$0")/.." && pwd)
base_sha=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
cleanup() {
  git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
  git -C "$root" worktree prune >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$work/base" "$base_sha" >/dev/null

unset CARGO_TARGET_DIR
# run <side> <checkout> <pair>: one benchmark run, its result line appended
# to $work/<side>.jsonl.
run() {
  local side=$1 dir=$2 pair=$3 out
  shift 3
  out="$work/$side.$pair.out"
  if ! python3 "$dir/cleanbench/run.py" --workload "$workload" \
      --seconds "$seconds" "$@" >"$out" 2>"$work/$side.$pair.err"; then
    tail -n 20 "$work/$side.$pair.err" >&2
    echo "bench_ab: $side run of pair $pair failed" >&2
    exit 1
  fi
  tail -n 1 "$out" >>"$work/$side.jsonl"
  echo "pair $pair $side: $(tail -n 1 "$out")" >&2
  if ! tail -n 1 "$out" | python3 -c 'import json, sys
r = json.load(sys.stdin)
sys.exit(r.get("correct") is not True or r.get("failed", 1) > 0)'; then
    echo "bench_ab: $side run of pair $pair reported wrong answers" >&2
    exit 1
  fi
}

for ((p = 0; p < pairs; p++)); do
  if ((p % 2 == 0)); then
    run base "$work/base" "$p" "$@"
    run change "$root" "$p" "$@"
  else
    run change "$root" "$p" "$@"
    run base "$work/base" "$p" "$@"
  fi
done

change=$(git -C "$root" rev-parse --short HEAD)
git -C "$root" diff --quiet HEAD || change+="+worktree"
echo "# $workload: change $change vs base ${base_sha:0:7}," \
  "$pairs pairs of $seconds s runs"
python3 - "$root/BENCHMARK.json" "$work/base.jsonl" "$work/change.jsonl" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
base = [json.loads(line) for line in open(sys.argv[2])]
change = [json.loads(line) for line in open(sys.argv[3])]


def values(runs, name):
    out = []
    for r in runs:
        m = r.get("metrics", {}).get(name)
        out.append(None if m is None else m.get("value"))
    return out


print(f"{'metric':<16}{'base':>11}{'change':>11}{'ratio':>8}"
      f"{'wins':>7}{'ties':>6}{'base IQR':>18}{'bound':>7}  verdict")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    b, c = values(base, name), values(change, name)
    paired = [(x, y) for x, y in zip(b, c) if x is not None and y is not None]
    if not paired:
        print(f"{name:<16}{'n/a':>11}")
        continue
    bs, cs = [x for x, _ in paired], [y for _, y in paired]
    bm, cm = statistics.median(bs), statistics.median(cs)
    wins = sum((y < x) if lower else (y > x) for x, y in paired)
    ties = sum(x == y for x, y in paired)
    q = (statistics.quantiles(bs, n=4, method="inclusive") if len(bs) > 1
         else [bs[0]] * 3)
    iqr = q[2] - q[0]
    spread = iqr / bm if bm else 0.0
    ratio = cm / bm if bm else float("nan")
    bound = metric["bound"]
    if spread > bound:
        verdict = "unresolved"
    elif (ratio > 1 + bound) if lower else (ratio < 1 - bound):
        verdict = "worse"
    else:
        verdict = "ok"
    n = len(paired)
    print(f"{name:<16}{bm:>11.4g}{cm:>11.4g}{ratio:>8.3f}{wins:>4}/{n:<2}"
          f"{ties:>3}/{n:<2}{iqr:>10.4g} ({spread:>5.1%}){bound:>7.0%}  "
          f"{verdict}")
EOF
