#include "runtime/plan_cache.h"

#include "common/string_util.h"

namespace msql {

namespace {

size_t CountPlanNodes(const LogicalPlan& plan) {
  size_t n = 1;
  for (const auto& child : plan.children) {
    if (child != nullptr) n += CountPlanNodes(*child);
  }
  return n;
}

}  // namespace

std::string PlanCacheKey(const std::string& user, const std::string& sql,
                         const std::vector<TypeKind>& param_types,
                         bool rewritten) {
  // '\x1f' (unit separator) cannot appear in identifiers or SQL text the
  // lexer accepts, so the concatenation is injective.
  std::string key = StrCat(user, "\x1f", sql, "\x1f", rewritten ? "r" : "l");
  for (TypeKind t : param_types) {
    key.push_back(static_cast<char>('0' + static_cast<int>(t)));
  }
  return key;
}

uint64_t PlanCache::ApproxPlanBytes(const PreparedPlan& plan) {
  uint64_t bytes = sizeof(PreparedPlan) + plan.sql.size() +
                   plan.canonical.size() + plan.user.size() +
                   plan.fingerprint.size();
  if (plan.plan != nullptr) {
    // Bound plans are expression-tree heavy; 1 KiB per operator is a
    // deliberately generous stand-in so the byte budget errs toward
    // evicting, never toward unbounded growth.
    bytes += 1024ull * CountPlanNodes(*plan.plan);
  }
  return bytes;
}

PreparedPlanPtr PlanCache::Lookup(const std::string& key,
                                  uint64_t current_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  if (it->second->plan->generation != current_generation) {
    // Bound against older data: the plan pins pre-mutation table
    // snapshots, so replaying it would read stale rows. Drop eagerly and
    // let the caller re-prepare.
    bytes_ -= it->second->plan->approx_bytes;
    lru_.erase(it->second);
    index_.erase(it);
    ++counters_.invalidations;
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counters_.hits;
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key, PreparedPlanPtr plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (plan->approx_bytes > max_bytes_) return;  // would evict everything
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->plan->approx_bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_[key] = lru_.begin();
  bytes_ += lru_.front().plan->approx_bytes;
  ++counters_.insertions;
  EvictToBudgetLocked();
}

void PlanCache::EvictToBudgetLocked() {
  while (!lru_.empty() &&
         (index_.size() > max_entries_ || bytes_ > max_bytes_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.plan->approx_bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.evictions += index_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.entries = index_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace msql
