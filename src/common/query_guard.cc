#include "common/query_guard.h"

#include "common/string_util.h"

namespace msql {

void QueryGuard::Arm(int64_t timeout_ms, uint64_t max_memory_bytes,
                     uint64_t max_result_rows, CancelTokenPtr token,
                     std::shared_ptr<std::atomic<uint64_t>> cancel_generation,
                     std::optional<uint64_t> generation_snapshot) {
  armed_ = true;
  ticks_ = 1;  // first Check() takes the slow path and seeds the cadence
  timeout_ms_ = timeout_ms;
  has_deadline_ = timeout_ms > 0;
  propagated_deadline_ = false;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms);
  }
  max_rows_ = max_result_rows;
  max_bytes_ = max_memory_bytes;
  rows_charged_ = 0;
  bytes_charged_ = 0;
  token_ = std::move(token);
  cancel_generation_ = std::move(cancel_generation);
  if (generation_snapshot) {
    generation_snapshot_ = *generation_snapshot;
  } else {
    generation_snapshot_ =
        cancel_generation_ == nullptr
            ? 0
            : cancel_generation_->load(std::memory_order_relaxed);
  }
}

Status QueryGuard::CheckSlow() {
  ticks_ = kCheckInterval;
  if (token_ != nullptr && token_->cancelled()) {
    return Status(ErrorCode::kCancelled, "query cancelled via cancel token");
  }
  if (cancel_generation_ != nullptr &&
      cancel_generation_->load(std::memory_order_relaxed) !=
          generation_snapshot_) {
    return Status(ErrorCode::kCancelled,
                  "query cancelled by Engine::CancelAll");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    if (propagated_deadline_) {
      return Status(ErrorCode::kDeadlineExceeded,
                    "query deadline exceeded (deadline set at admission)");
    }
    return Status(ErrorCode::kDeadlineExceeded,
                  StrCat("query deadline exceeded (timeout_ms=", timeout_ms_,
                         ")"));
  }
  return Status::Ok();
}

Status QueryGuard::BudgetExceeded() const {
  if (max_rows_ != 0 && rows_charged_ > max_rows_) {
    return Status(ErrorCode::kResourceExhausted,
                  StrCat("query materialized ", rows_charged_,
                         " rows, exceeding max_result_rows=", max_rows_));
  }
  return Status(ErrorCode::kResourceExhausted,
                StrCat("query materialized approximately ", bytes_charged_,
                       " bytes, exceeding max_memory_bytes=", max_bytes_));
}

}  // namespace msql
