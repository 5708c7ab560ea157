#include "runtime/rate_limiter.h"

#include <algorithm>

namespace msql {

RateLimiter::RateLimiter(double rate_per_sec, int64_t burst)
    : interval_us_(rate_per_sec <= 0.0
                       ? 0
                       : std::max<int64_t>(
                             1, static_cast<int64_t>(1e6 / rate_per_sec))),
      tau_us_((std::max<int64_t>(1, burst) - 1) * interval_us_) {}

int64_t RateLimiter::TryAcquire() {
  if (interval_us_ == 0) return 0;
  int64_t now = NowUs();
  int64_t tat = tat_us_.load(std::memory_order_relaxed);
  while (true) {
    // Conforming if the theoretical arrival time, less the burst allowance,
    // has already passed.
    if (tat - tau_us_ > now) return tat - tau_us_ - now;
    int64_t next_tat = std::max(tat, now) + interval_us_;
    if (tat_us_.compare_exchange_weak(tat, next_tat,
                                      std::memory_order_relaxed)) {
      return 0;
    }
    // CAS failure reloaded `tat`; re-evaluate against the same `now` (the
    // error is nanoseconds and only ever makes admission slightly stricter).
  }
}

RateLimiter& RateLimiterRegistry::ForKey(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<RateLimiter>& slot = limiters_[key];
  if (slot == nullptr) {
    slot = std::make_unique<RateLimiter>(rate_per_sec_, burst_);
  }
  return *slot;
}

}  // namespace msql
