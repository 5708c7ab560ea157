#include "runtime/shared_cache.h"

#include "common/fault_injection.h"

namespace msql {

bool SharedMeasureCache::Lookup(const std::string& key, Value* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++counters_.hits;
  *out = it->second->value;
  return true;
}

void SharedMeasureCache::Insert(const std::string& key, const Value& value,
                                uint64_t generation) {
  const uint64_t cost = ApproxEntryBytes(key, value);
  std::lock_guard<std::mutex> lock(mu_);
  if (generation < min_generation_ || cost > max_bytes_) {
    ++counters_.rejected;
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) RemoveLocked(it->second);
  lru_.push_front(Entry{key, value, nullptr, generation, cost});
  index_.emplace(key, lru_.begin());
  bytes_ += cost;
  ++counters_.insertions;
  EvictToBudgetLocked();
}

bool SharedMeasureCache::LookupObject(const std::string& key,
                                      std::shared_ptr<const void>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->object == nullptr) {
    ++counters_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++counters_.hits;
  *out = it->second->object;
  return true;
}

void SharedMeasureCache::InsertObject(const std::string& key,
                                      std::shared_ptr<const void> object,
                                      uint64_t bytes, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation < min_generation_ || bytes > max_bytes_) {
    ++counters_.rejected;
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) RemoveLocked(it->second);
  lru_.push_front(Entry{key, Value(), std::move(object), generation, bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  ++counters_.insertions;
  EvictToBudgetLocked();
}

void SharedMeasureCache::InvalidateOlderThan(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation > min_generation_) {
    min_generation_ = generation;
    ++counters_.invalidations;
  }
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->generation < min_generation_) {
      index_.erase(it->key);
      bytes_ -= it->bytes;
      it = lru_.erase(it);
      ++counters_.evictions;
    } else {
      ++it;
    }
  }
}

void SharedMeasureCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.evictions += lru_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void SharedMeasureCache::set_max_bytes(uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = max_bytes;
  EvictToBudgetLocked();
}

uint64_t SharedMeasureCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_bytes_;
}

SharedMeasureCache::Stats SharedMeasureCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

uint64_t SharedMeasureCache::ApproxEntryBytes(const std::string& key,
                                              const Value& v) {
  return sizeof(Entry) + 2 * key.size() + sizeof(void*) * 4 +
         v.str().size();
}

void SharedMeasureCache::EvictToBudgetLocked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    RemoveLocked(std::prev(lru_.end()));
    ++counters_.evictions;
  }
}

void SharedMeasureCache::RemoveLocked(LruList::iterator it) {
  index_.erase(it->key);
  bytes_ -= it->bytes;
  lru_.erase(it);
}

bool AdmitSharedCacheFill() {
  FaultInjector& faults = FaultInjector::Instance();
  return !faults.active() ||
         faults.Checkpoint("runtime.shared_cache_fill").ok();
}

}  // namespace msql
