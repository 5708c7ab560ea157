#include "exec/exec_state.h"

#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "runtime/shared_cache.h"

namespace msql {

SharedCacheSlot::SharedCacheSlot(ExecState* state, std::string_view prefix,
                                 std::initializer_list<std::string_view> parts) {
  if (state->shared_cache == nullptr) return;
  state_ = state;
  const std::string generation = std::to_string(state->catalog_generation);
  size_t size = prefix.size() + generation.size() + state->param_sig.size() + 2;
  for (std::string_view p : parts) size += p.size() + 1;
  key_.reserve(size);
  key_.append(prefix).append("|").append(generation).append("|");
  key_.append(state->param_sig);
  for (std::string_view p : parts) key_.append("|").append(p);
}

bool SharedCacheSlot::Lookup(Value* out) const {
  if (state_ == nullptr) return false;
  const bool hit = state_->shared_cache->Lookup(key_, out);
  ++(hit ? state_->shared_cache_hits : state_->shared_cache_misses);
  return hit;
}

bool SharedCacheSlot::Lookup(std::shared_ptr<const void>* out) const {
  if (state_ == nullptr) return false;
  const bool hit = state_->shared_cache->LookupObject(key_, out);
  ++(hit ? state_->shared_cache_hits : state_->shared_cache_misses);
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

Status SharedCacheSlot::Fill(const Value& value) const {
  if (state_ == nullptr || !AdmitFill()) return Status::Ok();
  MSQL_RETURN_IF_ERROR(state_->guard.ChargeBytes(
      SharedMeasureCache::ApproxEntryBytes(key_, value)));
  state_->shared_cache->Insert(key_, value, state_->catalog_generation);
  return Status::Ok();
}

Status SharedCacheSlot::Fill(std::shared_ptr<const void> object,
                             uint64_t bytes) const {
  if (state_ == nullptr || !AdmitFill()) return Status::Ok();
  MSQL_RETURN_IF_ERROR(state_->guard.ChargeBytes(bytes));
  state_->shared_cache->InsertObject(key_, std::move(object), bytes,
                                     state_->catalog_generation);
  return Status::Ok();
}

}  // namespace msql
