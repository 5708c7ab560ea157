#ifndef MSQL_RUNTIME_LRU_CACHE_H_
#define MSQL_RUNTIME_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace msql {

// Engine-wide, thread-safe LRU cache of immutable, type-erased objects under
// a byte budget and an optional entry cap. It is the one implementation
// behind both engine caches: the prepared-plan cache (PlanCache,
// runtime/plan_cache.h) and the cross-query measure cache
// (SharedMeasureCache, below). Objects are opaque to the cache: the caller
// supplies each object's byte estimate and keeps key prefixes disjoint per
// object type.
//
// Freshness, the one rule both caches follow (docs/CONCURRENCY.md):
//   * every key names the catalog generation its object was computed at,
//     and every Insert carries that generation;
//   * after any catalog or table-data mutation the engine raises the floor
//     to the new generation (InvalidateOlderThan), which purges every older
//     entry at once;
//   * an Insert below the floor is rejected. This closes the race where a
//     computation that started before a mutation publishes after it.
// A probe therefore never sees an entry older than the floor, and a stale
// entry never outlives the mutation that made it stale.
class LruCache {
 public:
  // Counter snapshot; `entries`/`bytes` are the current residency.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t rejected = 0;       // below-floor or oversized inserts
    uint64_t evictions = 0;      // budget, entry-cap and Clear removals
    uint64_t invalidations = 0;  // entries purged by a floor raise
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  static constexpr uint64_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  explicit LruCache(uint64_t max_bytes = kDefaultMaxBytes,
                    size_t max_entries = std::numeric_limits<size_t>::max())
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // The object under `key`, or null; a hit refreshes LRU recency. Counts a
  // hit or a miss.
  std::shared_ptr<const void> Lookup(const std::string& key);

  // Publishes a non-null `object` computed at catalog generation
  // `generation`, replacing any entry under `key`, and evicts the least
  // recently used entries past the budget or the cap. Rejected (and
  // counted) below the floor or when the entry alone exceeds the budget.
  void Insert(const std::string& key, std::shared_ptr<const void> object,
              uint64_t bytes, uint64_t generation);

  // Raises the floor to `generation` and purges every entry below it.
  void InvalidateOlderThan(uint64_t generation);

  // Drops everything (keeps counters and the floor).
  void Clear();

  // Adjusts the byte budget; evicts immediately if shrinking.
  void set_max_bytes(uint64_t max_bytes);
  uint64_t max_bytes() const;
  size_t max_entries() const { return max_entries_; }

  Stats stats() const;

  // What one entry is charged: the caller's object estimate plus the
  // bookkeeping and the key, which is stored twice (LRU node and index).
  static uint64_t EntryBytes(const std::string& key, uint64_t object_bytes);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> object;
    uint64_t generation = 0;
    uint64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  // Pops least-recently-used entries until within budget and cap. mu_ held.
  void EvictToBudgetLocked();
  void RemoveLocked(LruList::iterator it);

  const size_t max_entries_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  uint64_t max_bytes_;
  uint64_t bytes_ = 0;
  uint64_t min_generation_ = 0;
  Stats counters_;
};

// The cross-query measure cache: measure values, correlated-subquery values
// and the grouped strategy's per-shape value tables (measure/grouped.h),
// shared across concurrent queries and sessions. It promotes the per-query
// memo of ExecState (the paper's section 5.1 "localized self-join") to the
// cross-query level: once any query has evaluated a measure in some
// evaluation context, every later query probing the same (data version,
// measure, context) triple reuses the value instead of re-scanning the
// measure source, the reuse the Data Cube line of work gets from
// materializing group-by results once. Keys are built by SharedCacheSlot
// (exec/exec_state.h) from the catalog generation, the query's parameter
// signature, a structural fingerprint of the measure (runtime/fingerprint.h)
// and the evaluation-context signature.
using SharedMeasureCache = LruCache;

}  // namespace msql

#endif  // MSQL_RUNTIME_LRU_CACHE_H_
