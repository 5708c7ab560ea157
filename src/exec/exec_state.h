#ifndef MSQL_EXEC_EXEC_STATE_H_
#define MSQL_EXEC_EXEC_STATE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/query_guard.h"
#include "common/query_stats.h"
#include "common/value.h"
#include "obs/op_profile.h"

namespace msql {

class LruCache;     // runtime/lru_cache.h
class ThreadPool;   // runtime/thread_pool.h
struct LogicalPlan;  // plan/plan.h

// How measure evaluations are executed: the one switch between the literal
// evaluation and the optimized one. kNaive, the reference the msqlcheck
// oracle's naive legs compare with, runs the plan as bound, scans the
// measure source for every evaluation and runs every subquery afresh.
// kGrouped (the default) turns on every optimization: the plan rewrite
// (plan/rewrite.h), the cross-query SharedMeasureCache, the per-context
// measure memo keyed by context signature (the paper's "localized
// self-join", section 5.1), one key->value table per context *shape* so
// that G same-shaped contexts cost O(R + G) instead of O(G x R)
// (measure/grouped.h), the section 6.4 inline fast path (a context of
// row-id terms only is evaluated over those rows, and VISIBLE-only call
// sites skip the group-key terms the row ids imply), and memoization of
// correlated subqueries by their free variables.
enum class MeasureStrategy { kNaive, kGrouped };

// How operators execute. kVectorized (the default) runs the hot operators
// (scan, project, filter, aggregation, measure accumulation) over typed
// column batches (exec/column_vector.h) with per-operator fallback to the
// row path when an expression has no kernel; kRow is the row-at-a-time
// interpreter, kept as the correctness baseline (the msqlcheck oracle runs
// every strategy under both modes). Fallbacks surface in EXPLAIN ANALYZE
// (exec=vectorized|row) and the msql_exec_row_fallbacks_total metric.
enum class ExecMode { kRow, kVectorized };

struct EngineOptions {
  MeasureStrategy measure_strategy = MeasureStrategy::kGrouped;
  ExecMode exec_mode = ExecMode::kVectorized;
  // Workers for morsel-parallel row-path key evaluation in grouped builds
  // (dimension expressions without a vector kernel). 0 = one worker per
  // hardware thread (capped by the engine's measure pool); 1 =
  // single-threaded.
  int measure_parallelism = 0;
  // Guard rails (see docs/ROBUSTNESS.md). Zero means unlimited. The depth
  // limit drives every recursion guard: plan execution, measure evaluation
  // and view expansion all trip kResourceExhausted at this depth.
  int max_recursion_depth = 64;
  // Wall-clock budget per statement; exceeding it returns
  // kDeadlineExceeded. Scheduler-submitted statements start this budget at
  // submission (docs/CONCURRENCY.md), so admission and queue wait count
  // against it.
  int64_t timeout_ms = 0;
  // Approximate bytes of materialized relations; exceeding returns
  // kResourceExhausted.
  uint64_t max_memory_bytes = 0;
  // Total rows materialized across all operators of a statement (a proxy
  // for total work and peak memory); exceeding returns kResourceExhausted.
  uint64_t max_result_rows = 0;
  // Prepared-statement plan cache (docs/NETWORKING.md): when enabled,
  // Engine::Query consults a fingerprint-keyed cache of bound,
  // measure-expanded plans before parsing, and Engine::PrepareSelect
  // publishes into it. Invalidated by catalog generation; LRU-bounded by
  // the plan_cache_* limits below.
  bool enable_plan_cache = false;
  size_t plan_cache_max_entries = 256;
  uint64_t plan_cache_max_bytes = 64ull << 20;
  // Observability (docs/OBSERVABILITY.md). Tracing is off by default and
  // zero-cost when disabled: the traced path is only entered when this is
  // set, so the hot path pays one branch.
  bool enable_tracing = false;
  // Traces retained for Engine::RecentTraces() (engine-level: the ring is
  // sized when the engine is constructed).
  size_t trace_ring_capacity = 64;
  // Queries with total wall time >= this threshold are appended to the
  // slow-query log as JSON lines (0 logs every traced query). Negative
  // disables the sink. Engine-level: read at engine construction.
  int64_t slow_query_log_ms = -1;
  // Slow-query log destination; empty means stderr.
  std::string slow_query_log_path;
  // Exposes the virtual `msql_system.*` introspection tables (connections,
  // queries, metrics — docs/OBSERVABILITY.md) to the binder. Off by default
  // so embedded engines pay nothing; msqld turns it on.
  bool enable_system_tables = false;
};

// Per-query mutable execution state: option snapshot, caches, and the
// per-query counters (common/query_stats.h) that QueryStats, EXPLAIN
// ANALYZE and the engine metrics are built from.
struct ExecState : QueryCounters {
  EngineOptions options;

  // Resource governor for this query; armed by Engine::RunSelect. Row
  // loops call guard.Check(), materialization points call
  // guard.ChargeRows(). Parallel measure workers run against forks of this
  // guard (QueryGuard::ForkWorker), merged after the join.
  QueryGuard guard;

  // The query's memo, read and written only through MemoSlot: measure
  // values, subquery values (both boxed as `const Value`), the grouped
  // strategy's value tables and source partitions (measure/grouped.h).
  // Keys start with a kind prefix and name per-bind pointer identities,
  // stable within one query.
  std::unordered_map<std::string, std::shared_ptr<const void>> memo;

  // Returns the engine's measure worker pool, creating it on first use
  // (null/unset => single-threaded evaluation). A provider rather than a
  // raw pool so the threads only ever exist once a query actually has a
  // parallel-eligible grouped build. Worker-side ExecState forks leave it
  // unset: workers must never re-enter the pool they run on.
  std::function<ThreadPool*()> measure_pool_provider;

  // Engine-wide cross-query result cache, the SharedMeasureCache (may be
  // null: uncached engine or naive strategy). Consulted through
  // SharedCacheSlot on a memo miss; keys and fills are tagged with
  // `catalog_generation`, the catalog data version the query's plan was
  // bound at (snapshotted before binding), so entries computed against
  // concurrently mutated data are rejected by the cache.
  LruCache* shared_cache = nullptr;
  uint64_t catalog_generation = 0;

  // Per-query memo of structural plan fingerprints (cross-query cache key
  // components); keyed by node identity, which is stable within one query.
  std::unordered_map<const LogicalPlan*, std::string> plan_fingerprints;

  // Per-operator runtime profile (EXPLAIN ANALYZE). Null — the default —
  // keeps the executor's profiling hook to a single branch per operator.
  obs::PlanProfile* profile = nullptr;

  int depth = 0;

  // Positional parameter values for prepared-statement execution (null =
  // no parameters). `param_sig` is the rendered value tuple; every
  // *cross-query* shared-cache key (SharedCacheSlot) carries it so results
  // computed under one parameter binding are never replayed under another
  // (structural fingerprints render `?` placeholders identically).
  const Row* params = nullptr;
  std::string param_sig;

  // How this statement interacted with the engine's prepared-plan cache
  // (0 = not consulted, 1 = miss, 2 = hit); copied into QueryStats.
  int plan_cache_outcome = 0;
};

// One query's handle on one cross-query SharedMeasureCache entry
// (docs/CONCURRENCY.md), and the only place such keys are built:
// `prefix|catalog generation|parameter signature|part|part...`. The
// generation pins the data version the entry was computed at; the
// parameter signature pins the bound `?` values, which structural
// fingerprints render identically. The key is built on the first Lookup
// or Fill, so a slot behind a memo hit costs no key; the prefix and parts
// must outlive the slot. An inactive slot (default-constructed, or on a
// query without a shared cache) misses every lookup uncounted and ignores
// fills.
class SharedCacheSlot {
 public:
  SharedCacheSlot() = default;
  // At most three parts.
  SharedCacheSlot(ExecState* state, std::string_view prefix,
                  std::initializer_list<std::string_view> parts);

  // The shared entry, or null. On an active slot, counts a shared-cache
  // hit or miss on the query.
  std::shared_ptr<const void> Lookup() const;

  // Publishes an object computed by this query, charged to its byte budget
  // as the cache charges it. The `runtime.shared_cache_fill` fault point
  // may skip the fill: the query's answer stays correct, only its result
  // goes uncached.
  Status Fill(std::shared_ptr<const void> object, uint64_t bytes) const;

 private:
  const std::string& Key() const;

  ExecState* state_ = nullptr;
  std::string_view prefix_;
  std::array<std::string_view, 3> parts_;
  size_t num_parts_ = 0;
  mutable std::string key_;
};

// One memoized result of a query: the one procedure behind the measure
// memo, the subquery memo and the grouped value tables. Its local half is
// the query's memo entry under `key`; its shared half, `shared`, is the
// cross-query entry (inactive for results that are not shareable, and for
// grouped partitions, which use the local half only). A shared hit is
// memoized locally on the way; a computed result is filled into both.
class MemoSlot {
 public:
  // `memo_hits` (may be null) counts local hits.
  MemoSlot(ExecState* state, std::string key, SharedCacheSlot shared = {},
           uint64_t* memo_hits = nullptr)
      : state_(state),
        key_(std::move(key)),
        shared_(std::move(shared)),
        memo_hits_(memo_hits) {}

  // Whether the result is memoized or shared; sets *out to it. A memoized
  // null marks a degraded grouped build.
  bool Lookup(std::shared_ptr<const void>* out) const;

  // Memoizes `object` and fills a non-null one into the shared half,
  // charged at `bytes`.
  Status Fill(std::shared_ptr<const void> object, uint64_t bytes) const;

 private:
  ExecState* state_;
  std::string key_;
  SharedCacheSlot shared_;
  uint64_t* memo_hits_;
};

// The byte estimate of a Value memoized as an object.
inline uint64_t MemoValueBytes(const Value& v) {
  return sizeof(Value) + v.str().size();
}

}  // namespace msql

#endif  // MSQL_EXEC_EXEC_STATE_H_
