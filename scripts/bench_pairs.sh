#!/usr/bin/env bash
# Paired end-to-end benchmark runs: a base revision against the working tree.
#
#   bash scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seconds]
#
# Exports <parent-rev> (git archive) into a work directory, then runs
# `bench/e2e/run.sh --workload <workload> --seconds <seconds>` (default 25 s)
# there and in this working tree, alternating which goes first in each pair.
# Each side builds into its own directory. For every end-to-end metric of
# BENCHMARK.json it prints the median [q1-q3] of both sides, the change of
# the medians, in how many pairs the working tree was better, and a verdict
# against the metric's `bound` (a fraction of the base median):
#   worse       the change's median is worse than the base median by more
#               than the bound;
#   unresolved  the base runs' spread (q3 - q1) exceeds the bound, and not
#               every change run beats every base run;
#   ok          neither holds.
# The
# end-to-end metrics are scaled by the run's yardstick; below them follow
# the same runs' unscaled wall-clock metrics (wall.setup_s, wall.qps,
# wall.measure_p50_ms, wall.plain_p50_ms) and the yardstick itself
# (yardstick_ms), so a change in the scaled rows can be told apart from a
# change in the yardstick.
#
# The work directory is $BENCH_PAIRS_DIR if set (kept, so builds are reused),
# else a temporary one removed on exit. Each run's whole stdout goes to
# <work>/results/<workload>-<side>-<pair>.out; its last line is the JSON
# result.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> [seconds]" >&2
  exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seconds="${4:-25}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ -n "${BENCH_PAIRS_DIR:-}" ]]; then
  work="$BENCH_PAIRS_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
work="$(cd "$work" && pwd)"

sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
base="$work/base-$sha"
if [[ ! -d "$base" ]]; then
  mkdir -p "$base.tmp"
  git -C "$root" archive "$sha" | tar -x -C "$base.tmp"
  mv "$base.tmp" "$base"
fi
results="$work/results"
mkdir -p "$results"

# run <side> <pair>: one benchmark run; its stdout lands in results/.
run() {
  local side="$1" pair="$2" tree build
  if [[ "$side" == base ]]; then tree="$base"; else tree="$root"; fi
  build="$work/build-$side"
  echo "pair $pair: $side" >&2
  CARGO_TARGET_DIR="$build" bash "$tree/bench/e2e/run.sh" \
    --workload "$workload" --seconds "$seconds" 2>>"$work/build.log" \
    >"$results/$workload-$side-$pair.out"
}

for ((p = 1; p <= pairs; p++)); do
  if ((p % 2 == 1)); then
    run base "$p"
    run change "$p"
  else
    run change "$p"
    run base "$p"
  fi
done

python3 - "$root/BENCHMARK.json" "$results" "$workload" "$pairs" "$sha" <<'EOF'
import json, statistics, sys

bench_path, results, workload, pairs, sha = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench_path))["end_to_end"]

# The JSON result line holds the end-to-end metrics; the other metrics are
# lines "<workload>.<name> <value> <unit>" above it.
def load(side, p):
    with open(f"{results}/{workload}-{side}-{p}.out") as f:
        lines = f.read().splitlines()
    r = json.loads(lines[-1])
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2 and parts[0].startswith(workload + "."):
            name = parts[0][len(workload) + 1:]
            try:
                r["metrics"].setdefault(name, {"value": float(parts[1])})
            except ValueError:
                pass
    return r

runs = {s: [load(s, p) for p in range(1, pairs + 1)] for s in ("base", "change")}
for side, rs in runs.items():
    for p, r in enumerate(rs, 1):
        if not r.get("correct", False) or r.get("failed", 0):
            print(f"warning: {side} pair {p}: correct={r.get('correct')} "
                  f"failed={r.get('failed')}")

def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print(f"{workload}: {pairs} pairs, base {sha[:10]} vs working tree")
print(f"{'metric':<20} {'base median [q1-q3]':<30} "
      f"{'change median [q1-q3]':<30} {'delta':>8}  won    verdict")

def verdict(b, c, lower, bound):
    bm, bq1, bq3 = spread(b)
    cm = spread(c)[0]
    worse_by = (cm - bm if lower else bm - cm) / bm if bm else 0.0
    if worse_by > bound:
        return "worse"
    all_beat = max(c) < min(b) if lower else min(c) > max(b)
    if bm and (bq3 - bq1) / bm > bound and not all_beat:
        return "unresolved"
    return "ok"

wall = [("wall.setup_s", True), ("wall.qps", False),
        ("wall.measure_p50_ms", True), ("wall.plain_p50_ms", True),
        ("yardstick_ms", True)]
bounds = {m["name"]: m["bound"] for m in metrics}
rows = [(m["name"], m["better"] == "lower") for m in metrics]
for name, lower in rows + [("", None)] + wall:
    if not name:
        print("unscaled, same runs:")
        continue
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    won = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
    bm, bq1, bq3 = spread(b)
    cm, cq1, cq3 = spread(c)
    delta = (cm - bm) / bm * 100 if bm else float("nan")
    verdict_text = (verdict(b, c, lower, bounds[name]) if name in bounds
                    else "")
    print(f"{name:<20} {f'{bm:.4g} [{bq1:.4g}-{bq3:.4g}]':<30} "
          f"{f'{cm:.4g} [{cq1:.4g}-{cq3:.4g}]':<30} {delta:+7.1f}%  "
          f"{f'{won}/{pairs}':<6} {verdict_text}".rstrip())
EOF
