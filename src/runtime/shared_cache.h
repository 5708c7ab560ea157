#ifndef MSQL_RUNTIME_SHARED_CACHE_H_
#define MSQL_RUNTIME_SHARED_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/value.h"

namespace msql {

// Engine-wide, thread-safe cache of measure and correlated-subquery scalar
// results, shared across concurrent queries and sessions. This promotes the
// per-query `measure_cache` / `subquery_cache` of ExecState (the paper's
// section 5.1 "localized self-join" strategy) to the cross-query level: once
// any query has evaluated a measure in some evaluation context, every later
// query probing the same (data version, measure, context) triple reuses the
// value instead of re-scanning the measure source — the same reuse the Data
// Cube line of work gets from materializing group-by results once.
//
// Keys are built by the caller from three stable components:
//   * the catalog data generation at which the value was computed (any DDL
//     or DML bumps it, so stale entries can never be observed),
//   * a structural fingerprint of the measure source plan and formula (see
//     runtime/fingerprint.h) — stable across queries, unlike the pointer
//     identities used by the per-query caches,
//   * the evaluation-context signature (EvalContext::Signature()).
//
// The cache is bounded by an approximate byte budget with LRU eviction.
// Insertions carry the generation they were computed at and are rejected if
// an invalidation for a newer generation has already been published; this
// closes the race where a query concurrently observes post-mutation data
// but would publish under its pre-mutation generation snapshot.
class SharedMeasureCache {
 public:
  // Counter snapshot; `entries`/`bytes` are the current residency.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t rejected = 0;   // stale-generation or oversized inserts
    uint64_t evictions = 0;  // LRU + invalidation removals
    uint64_t invalidations = 0;  // generation-floor raises (DDL/DML)
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  static constexpr uint64_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  explicit SharedMeasureCache(uint64_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  SharedMeasureCache(const SharedMeasureCache&) = delete;
  SharedMeasureCache& operator=(const SharedMeasureCache&) = delete;

  // On hit, copies the cached value into *out, refreshes LRU recency and
  // returns true. Counts a hit or miss either way.
  bool Lookup(const std::string& key, Value* out);

  // Publishes `value` computed at catalog data generation `generation`.
  // No-op (counted as rejected) when the generation is older than the
  // newest invalidation or the entry alone exceeds the byte budget.
  // Replaces an existing entry with the same key.
  void Insert(const std::string& key, const Value& value,
              uint64_t generation);

  // Type-erased immutable objects — e.g. the grouped strategy's dimension
  // indexes (measure/grouped.h) — share the same budget, LRU and
  // generation-invalidation machinery as scalar entries. Objects are
  // opaque to the cache, so the caller supplies the byte estimate at
  // insert time and uses disjoint key prefixes per object type.
  bool LookupObject(const std::string& key,
                    std::shared_ptr<const void>* out);
  void InsertObject(const std::string& key, std::shared_ptr<const void> object,
                    uint64_t bytes, uint64_t generation);

  // Drops every entry computed at a generation < `generation` and rejects
  // future inserts older than it. Called by the engine after any catalog or
  // table-data mutation, with the post-mutation generation.
  void InvalidateOlderThan(uint64_t generation);

  // Drops everything (keeps counters and the invalidation floor).
  void Clear();

  // Adjusts the byte budget; evicts immediately if shrinking.
  void set_max_bytes(uint64_t max_bytes);
  uint64_t max_bytes() const;

  Stats stats() const;

  // Approximate footprint of one entry: bookkeeping + key (stored twice:
  // LRU node and index) + inline value + string payload.
  static uint64_t ApproxEntryBytes(const std::string& key, const Value& v);

 private:
  struct Entry {
    std::string key;
    Value value;                          // scalar entries
    std::shared_ptr<const void> object;   // object entries (value is NULL)
    uint64_t generation = 0;
    uint64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  // Pops the least-recently-used entries until under budget. mu_ held.
  void EvictToBudgetLocked();
  void RemoveLocked(LruList::iterator it);

  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  uint64_t max_bytes_;
  uint64_t bytes_ = 0;
  uint64_t min_generation_ = 0;
  Stats counters_;
};

// Gate shared by every cross-query cache fill site (measure values, grouped
// indexes, subquery memos): the degradable `runtime.shared_cache_fill`
// fault point. A false return means "skip the fill and move on" — the
// query still returns correct (uncached) results, so a failed fill
// degrades that one query instead of failing it.
bool AdmitSharedCacheFill();

}  // namespace msql

#endif  // MSQL_RUNTIME_SHARED_CACHE_H_
