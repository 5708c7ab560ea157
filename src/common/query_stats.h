#ifndef MSQL_COMMON_QUERY_STATS_H_
#define MSQL_COMMON_QUERY_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace msql {

// Every per-query counter, defined once: X(field, metric, help). The field
// is the counter's name on ExecState, QueryStats, obs::OpStats and
// EngineStats and its key in the slow-query log's "stats" object; the
// metric is the Prometheus counter the engine folds it into after each
// query (docs/OBSERVABILITY.md). Adding a counter here adds it to all of
// those; scripts/lint_metric_names.sh reads the metric names from this list.
#define MSQL_QUERY_COUNTERS(X)                                               \
  /* Measure evaluation (measure/cse.cc, measure/grouped.cc). */             \
  X(measure_evals, "msql_measure_evals_total",                               \
    "Measure evaluations requested")                                         \
  X(measure_cache_hits, "msql_measure_cache_hits_total",                     \
    "Measure evaluations served from the per-query context cache")           \
  X(measure_source_scans, "msql_measure_source_scans_total",                 \
    "Full passes over a measure's source relation")                          \
  X(measure_inline_evals, "msql_measure_inline_evals_total",                 \
    "Measure evaluations taking the row-id inline fast path")                \
  X(measure_grouped_builds, "msql_measure_grouped_builds_total",             \
    "Grouped-strategy partitions of a measure source built")                 \
  X(measure_grouped_probes, "msql_measure_grouped_probes_total",             \
    "Measure evaluations answered by a grouped value-table lookup")          \
  X(measure_grouped_fallbacks, "msql_measure_grouped_fallbacks_total",       \
    "Grouped builds degraded to the scan path (fault injection)")            \
  X(measure_parallel_tasks, "msql_measure_parallel_tasks_total",             \
    "Workers dispatched for parallel row-path key evaluation in builds")     \
  /* Correlated scalar subqueries (exec/executor.cc). */                     \
  X(subquery_execs, "msql_subquery_execs_total",                             \
    "Correlated subquery executions")                                        \
  X(subquery_cache_hits, "msql_subquery_cache_hits_total",                   \
    "Correlated subquery results served from the memo cache")                \
  /* Cross-query SharedMeasureCache traffic of this query. */                \
  X(shared_cache_hits, "msql_shared_cache_hits_total",                       \
    "Cross-query shared cache hits")                                         \
  X(shared_cache_misses, "msql_shared_cache_misses_total",                   \
    "Cross-query shared cache misses")                                       \
  /* Vectorized execution: column batches run through kernels, and */        \
  /* operator invocations that fell back to the row path. */                 \
  X(exec_vectorized_batches, "msql_exec_vectorized_batches_total",           \
    "1024-row column batches processed by vectorized kernels")               \
  X(exec_row_fallbacks, "msql_exec_row_fallbacks_total",                     \
    "Operator invocations that fell back to row-at-a-time execution")

// The counter fields, as a base of every struct that carries them.
struct QueryCounters {
#define MSQL_COUNTER_FIELD(field, metric, help) uint64_t field = 0;
  MSQL_QUERY_COUNTERS(MSQL_COUNTER_FIELD)
#undef MSQL_COUNTER_FIELD

  // Adds every counter of `o` (worker joins, per-operator deltas).
  void Add(const QueryCounters& o);
  // Subtracts every counter of `o`, saturating at zero.
  void Subtract(const QueryCounters& o);
};

// The counter list as data, for code that walks every counter.
struct QueryCounterDef {
  const char* field;
  const char* metric;
  const char* help;
  uint64_t QueryCounters::*member;
};

inline constexpr QueryCounterDef kQueryCounters[] = {
#define MSQL_COUNTER_DEF(field, metric, help) \
  {#field, metric, help, &QueryCounters::field},
    MSQL_QUERY_COUNTERS(MSQL_COUNTER_DEF)
#undef MSQL_COUNTER_DEF
};
inline constexpr size_t kNumQueryCounters = std::size(kQueryCounters);

inline void QueryCounters::Add(const QueryCounters& o) {
  for (const QueryCounterDef& c : kQueryCounters) {
    this->*c.member += o.*c.member;
  }
}

inline void QueryCounters::Subtract(const QueryCounters& o) {
  for (const QueryCounterDef& c : kQueryCounters) {
    uint64_t& a = this->*c.member;
    const uint64_t b = o.*c.member;
    a -= a < b ? a : b;
  }
}

// Immutable per-query execution statistics, snapshotted from the query's
// ExecState when it finishes. Returned on the result path
// (ResultSet::stats()) and attached to the query's trace: each concurrent
// query gets its own copy instead of clobbering shared mutable state.
struct QueryStats : QueryCounters {
  // Resource-governor charges (common/query_guard.h).
  uint64_t rows_charged = 0;
  uint64_t bytes_charged = 0;

  // Prepared-plan cache interaction of this statement (EXPLAIN ANALYZE's
  // "PlanCache:" line): kOff when the cache was not consulted, kMiss when
  // the statement was bound fresh (and published), kHit when a cached
  // bound plan skipped parse/bind/measure-expand.
  enum class PlanCacheOutcome { kOff = 0, kMiss = 1, kHit = 2 };
  PlanCacheOutcome plan_cache = PlanCacheOutcome::kOff;

  // Recursion depth at completion; 0 after a clean unwind.
  int depth = 0;

  // Wall time of the whole select pipeline (bind through render).
  int64_t total_us = 0;

  // Per-phase wall times, filled from the query's trace spans when tracing
  // was enabled for the statement (zero otherwise — the disabled path never
  // measures them). Names match the span names in docs/OBSERVABILITY.md;
  // these feed the wire response footer and msql_system.queries.
  int64_t admission_wait_us = 0;
  int64_t queue_wait_us = 0;
  int64_t parse_us = 0;
  int64_t bind_us = 0;
  int64_t measure_expand_us = 0;
  int64_t plan_us = 0;
  int64_t execute_us = 0;
  int64_t render_us = 0;
};

}  // namespace msql

#endif  // MSQL_COMMON_QUERY_STATS_H_
