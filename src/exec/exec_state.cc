#include "exec/exec_state.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "runtime/lru_cache.h"

namespace msql {

SharedCacheSlot::SharedCacheSlot(ExecState* state, std::string_view prefix,
                                 std::initializer_list<std::string_view> parts)
    : prefix_(prefix), num_parts_(parts.size()) {
  if (state->shared_cache == nullptr) return;
  state_ = state;
  std::copy(parts.begin(), parts.end(), parts_.begin());
}

const std::string& SharedCacheSlot::Key() const {
  if (!key_.empty()) return key_;
  const std::string generation = std::to_string(state_->catalog_generation);
  size_t size =
      prefix_.size() + generation.size() + state_->param_sig.size() + 2;
  for (size_t i = 0; i < num_parts_; ++i) size += parts_[i].size() + 1;
  key_.reserve(size);
  key_.append(prefix_).append("|").append(generation).append("|");
  key_.append(state_->param_sig);
  for (size_t i = 0; i < num_parts_; ++i) key_.append("|").append(parts_[i]);
  return key_;
}

std::shared_ptr<const void> SharedCacheSlot::Lookup() const {
  if (state_ == nullptr) return nullptr;
  std::shared_ptr<const void> hit = state_->shared_cache->Lookup(Key());
  ++(hit != nullptr ? state_->shared_cache_hits : state_->shared_cache_misses);
  return hit;
}

namespace {

// The degradable fill gate: a fault here skips the fill and moves on.
bool AdmitFill() {
  FaultInjector& faults = FaultInjector::Instance();
  return !faults.active() ||
         faults.Checkpoint("runtime.shared_cache_fill").ok();
}

}  // namespace

Status SharedCacheSlot::Fill(std::shared_ptr<const void> object,
                             uint64_t bytes) const {
  if (state_ == nullptr || !AdmitFill()) return Status::Ok();
  MSQL_RETURN_IF_ERROR(
      state_->guard.ChargeBytes(LruCache::EntryBytes(Key(), bytes)));
  state_->shared_cache->Insert(Key(), std::move(object), bytes,
                               state_->catalog_generation);
  return Status::Ok();
}

bool MemoSlot::Lookup(std::shared_ptr<const void>* out) const {
  auto it = state_->memo.find(key_);
  if (it != state_->memo.end()) {
    if (memo_hits_ != nullptr) ++*memo_hits_;
    *out = it->second;
    return true;
  }
  std::shared_ptr<const void> shared = shared_.Lookup();
  if (shared == nullptr) return false;
  state_->memo.emplace(key_, shared);
  *out = std::move(shared);
  return true;
}

Status MemoSlot::Fill(std::shared_ptr<const void> object,
                      uint64_t bytes) const {
  state_->memo.emplace(key_, object);
  if (object == nullptr) return Status::Ok();
  return shared_.Fill(std::move(object), bytes);
}

}  // namespace msql
