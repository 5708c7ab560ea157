#!/usr/bin/env bash
# Lints every metric name registered against obs::MetricsRegistry
# (GetCounter / GetGauge / GetHistogram call sites in src/, bench/,
# tools/ and examples/, plus the per-query counter list in
# src/common/query_stats.h) for the naming conventions documented in
# docs/OBSERVABILITY.md:
#
#   - every name matches ^msql_[a-z][a-z0-9_]*$ (prometheus-safe, one
#     namespace prefix, no camelCase)
#   - counters end in _total
#   - histograms end in a unit suffix: _ms, _seconds, _bytes, _rows or
#     _depth
#   - gauges end in _active, _entries, _bytes, _ratio or _pending
#   - every name belongs to a known family prefix (msql_query_,
#     msql_measure_, msql_net_, msql_plan_cache_, ... below) so new
#     subsystems register their namespace here before inventing one
#   - every name is mentioned in docs/OBSERVABILITY.md — the metrics
#     reference must not drift behind the code
#
# Exits non-zero listing every violation. Run from the repository root.
set -u

cd "$(dirname "$0")/.."

fail=0

# Extracts the first string literal of every Get<Kind>( call. Multiline
# call sites put the name on the line after the open paren, so flatten
# each file to one line before matching.
extract() { # $1 = method name
  find src bench tools examples \
      -name '*.cc' -o -name '*.h' -o -name '*.cpp' | while read -r f; do
    tr '\n' ' ' < "$f"
    echo
  done |
    grep -oE "$1\\( *\"[^\"]+\"" |
    sed -E 's/.*"([^"]+)"/\1/' | sort -u
}

check() { # $1 = kind, $2 = suffix regex, $3..$n = names
  local kind="$1" suffix="$2"
  shift 2
  for name in "$@"; do
    if ! [[ "$name" =~ ^msql_[a-z][a-z0-9_]*$ ]]; then
      echo "BAD NAME  ($kind): '$name' does not match ^msql_[a-z][a-z0-9_]*$"
      fail=1
    elif ! [[ "$name" =~ $suffix ]]; then
      echo "BAD SUFFIX ($kind): '$name' must match $suffix"
      fail=1
    fi
  done
}

# The per-query counters are registered in a loop over the counter list in
# src/common/query_stats.h; their names are the second argument of each
# X(field, "metric", "help") entry there.
extract_counter_table() {
  tr '\n' ' ' < src/common/query_stats.h |
    grep -oE 'X\( *[a-z_0-9]+, *"[^"]+"' |
    sed -E 's/.*"([^"]+)"/\1/' | sort -u
}

mapfile -t counters < <({ extract GetCounter; extract_counter_table; } |
                          sort -u)
mapfile -t gauges < <(extract GetGauge)
mapfile -t histograms < <(extract GetHistogram)

if [ "${#counters[@]}" -eq 0 ] || [ "${#gauges[@]}" -eq 0 ] ||
   [ "${#histograms[@]}" -eq 0 ] ||
   [ -z "$(extract_counter_table)" ]; then
  echo "lint_metric_names: found no registrations — extraction broken?"
  exit 1
fi

check counter '_total$' "${counters[@]}"
check gauge '(_active|_entries|_bytes|_ratio|_pending)$' "${gauges[@]}"
check histogram '(_ms|_seconds|_bytes|_rows|_depth)$' "${histograms[@]}"

# One namespace per subsystem: a metric must extend a registered family.
families='^msql_(queries|query_|measure_|subquery_|shared_cache_|sessions_|scheduler_|admission_|rate_limited|slow_queries|obs_|net_|plan_cache_|exec_)'
for name in "${counters[@]}" "${gauges[@]}" "${histograms[@]}"; do
  if ! [[ "$name" =~ $families ]]; then
    echo "BAD FAMILY: '$name' is outside the registered prefixes ($families)"
    fail=1
  fi
done

# Doc drift: every registered metric must appear in the observability
# reference (docs/OBSERVABILITY.md tabulates all families).
for name in "${counters[@]}" "${gauges[@]}" "${histograms[@]}"; do
  if ! grep -q "$name" docs/OBSERVABILITY.md; then
    echo "UNDOCUMENTED: '$name' is not mentioned in docs/OBSERVABILITY.md"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "lint_metric_names: FAILED"
  exit 1
fi
total=$(( ${#counters[@]} + ${#gauges[@]} + ${#histograms[@]} ))
echo "lint_metric_names: OK ($total metric names checked)"
