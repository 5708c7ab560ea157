#include "runtime/lru_cache.h"

#include <iterator>
#include <utility>

namespace msql {

std::shared_ptr<const void> LruCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++counters_.hits;
  return it->second->object;
}

void LruCache::Insert(const std::string& key,
                      std::shared_ptr<const void> object, uint64_t bytes,
                      uint64_t generation) {
  const uint64_t cost = EntryBytes(key, bytes);
  std::lock_guard<std::mutex> lock(mu_);
  if (generation < min_generation_ || cost > max_bytes_) {
    ++counters_.rejected;
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) RemoveLocked(it->second);
  lru_.push_front(Entry{key, std::move(object), generation, cost});
  index_.emplace(key, lru_.begin());
  bytes_ += cost;
  ++counters_.insertions;
  EvictToBudgetLocked();
}

void LruCache::InvalidateOlderThan(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation <= min_generation_) return;
  min_generation_ = generation;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->generation < min_generation_) {
      RemoveLocked(it);
      ++counters_.invalidations;
    }
    it = next;
  }
}

void LruCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.evictions += lru_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void LruCache::set_max_bytes(uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = max_bytes;
  EvictToBudgetLocked();
}

uint64_t LruCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_bytes_;
}

LruCache::Stats LruCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

uint64_t LruCache::EntryBytes(const std::string& key, uint64_t object_bytes) {
  return sizeof(Entry) + 2 * key.size() + object_bytes;
}

void LruCache::EvictToBudgetLocked() {
  while (!lru_.empty() &&
         (bytes_ > max_bytes_ || lru_.size() > max_entries_)) {
    RemoveLocked(std::prev(lru_.end()));
    ++counters_.evictions;
  }
}

void LruCache::RemoveLocked(LruList::iterator it) {
  index_.erase(it->key);
  bytes_ -= it->bytes;
  lru_.erase(it);
}

}  // namespace msql
