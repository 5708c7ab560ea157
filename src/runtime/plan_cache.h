#ifndef MSQL_RUNTIME_PLAN_CACHE_H_
#define MSQL_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "plan/plan.h"

namespace msql {

// A statement prepared once and executed many times: the bound,
// measure-expanded logical plan plus everything needed to validate later
// parameter bindings against it. Immutable after construction; shared
// between the plan cache, server-side prepared-statement registries and
// in-flight executions, so eviction never invalidates a running query.
struct PreparedPlan {
  std::string sql;        // statement text as prepared (trimmed)
  std::string canonical;  // canonical unparse of the parsed statement
  std::string user;       // binding user (definer security was applied)
  PlanPtr plan;           // bound + measure-expanded logical plan
  std::vector<TypeKind> param_types;  // declared positional parameter types
  int param_count = 0;    // `?` ordinals actually present in the statement
  uint64_t generation = 0;  // catalog data generation at bind time
  std::string fingerprint;  // structural identity (runtime/fingerprint.h)
  uint64_t approx_bytes = 0;
  // Scans an msql_system table: the plan embeds a telemetry snapshot the
  // catalog generation does not version, so it is never cached, never
  // prepared, and its statement stays out of the shared measure cache.
  bool reads_system_tables = false;
};
using PreparedPlanPtr = std::shared_ptr<const PreparedPlan>;

// Cache key for one (user, statement text, parameter-type signature, plan
// form) tuple. `rewritten` tells the rewritten plan (plan/rewrite.h) from
// the literal one the naive strategy runs. The same bound plan is typically
// indexed twice: under the raw text a client sent and under the canonical
// unparse, so Engine::Query (raw text, pre-parse probe) and EXPLAIN ANALYZE
// (AST in hand, canonical probe) hit the same entry.
std::string PlanCacheKey(const std::string& user, const std::string& sql,
                         const std::vector<TypeKind>& param_types,
                         bool rewritten);

// Engine-wide, thread-safe LRU cache of prepared plans keyed by statement
// text (docs/NETWORKING.md). A hit skips parse, bind and measure expansion
// entirely — the dominant cost of the repeated-dashboard workload the
// paper's semantic layer serves. Freshness follows the same discipline as
// SharedMeasureCache: every entry records the catalog generation it was
// bound at, and Lookup() takes the *current* generation — a stale entry is
// dropped on probe (counted as an invalidation) and the caller re-prepares.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;      // LRU removals
    uint64_t invalidations = 0;  // stale-generation drops on probe
    uint64_t entries = 0;        // current keys (aliases count separately)
    uint64_t bytes = 0;
  };

  PlanCache(size_t max_entries, uint64_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}
  PlanCache() : PlanCache(256, 64ull << 20) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Returns the cached plan for `key` if present and bound at exactly
  // `current_generation`; refreshes LRU recency. A generation mismatch
  // erases the entry and counts as invalidation + miss.
  PreparedPlanPtr Lookup(const std::string& key, uint64_t current_generation);

  // Indexes `plan` under `key` (replacing any previous entry). Aliases —
  // several keys sharing one PreparedPlanPtr — are independent LRU
  // entries; the shared plan dies with its last key.
  void Insert(const std::string& key, PreparedPlanPtr plan);

  // Drops everything (counters survive). Used by tests and explicit
  // administrative flushes; normal invalidation is lazy, on probe.
  void Clear();

  Stats stats() const;
  size_t max_entries() const { return max_entries_; }
  uint64_t max_bytes() const { return max_bytes_; }

  // Heuristic footprint of one cached plan: texts, fingerprint, and a
  // fixed charge per plan node standing in for the bound tree (plans are
  // pointer-rich; exact accounting is not worth the traversal).
  static uint64_t ApproxPlanBytes(const PreparedPlan& plan);

 private:
  struct Entry {
    std::string key;
    PreparedPlanPtr plan;
  };
  using LruList = std::list<Entry>;

  void EvictToBudgetLocked();

  const size_t max_entries_;
  const uint64_t max_bytes_;

  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  uint64_t bytes_ = 0;
  Stats counters_;
};

}  // namespace msql

#endif  // MSQL_RUNTIME_PLAN_CACHE_H_
