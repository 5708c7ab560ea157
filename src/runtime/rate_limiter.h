#ifndef MSQL_RUNTIME_RATE_LIMITER_H_
#define MSQL_RUNTIME_RATE_LIMITER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace msql {

// Lock-free token-bucket rate limiter (GCRA formulation: the bucket is a
// single "theoretical arrival time" timestamp, advanced by CAS, instead of
// a token count plus a refill thread). Admission (runtime/admission.h)
// consults one of these per user; a statement that cannot acquire
// immediately learns how long until a token frees up and waits out that
// hint against its wait budget and deadline (docs/CONCURRENCY.md).
//
// rate_per_sec <= 0 disables the limiter (TryAcquire always admits), so
// "no rate limit" costs one predictable branch. A new limiter starts with a
// full bucket of `burst` tokens.
class RateLimiter {
 public:
  explicit RateLimiter(double rate_per_sec = 0.0, int64_t burst = 1);

  // Attempts to take one token. Returns 0 on success, otherwise the number
  // of microseconds until a token will be available (callers sleep or
  // bounded-wait on that hint and try again).
  int64_t TryAcquire();

  bool enabled() const { return interval_us_ > 0; }

 private:
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const int64_t interval_us_;  // microseconds per token; 0 = unlimited
  const int64_t tau_us_;       // burst allowance: (burst - 1) * interval
  const std::chrono::steady_clock::time_point epoch_{
      std::chrono::steady_clock::now()};
  // GCRA theoretical arrival time, microseconds since epoch_.
  std::atomic<int64_t> tat_us_{0};
};

// A lazily-populated map of independent RateLimiters sharing one
// configuration, keyed by an arbitrary string — admission keys by user, so
// one client flooding statements exhausts only its own token bucket
// (docs/NETWORKING.md). ForKey returns a stable reference
// (limiters are heap-allocated and never removed); TryAcquire on the result
// is lock-free as usual, the registry lock covers only map lookup/insert.
class RateLimiterRegistry {
 public:
  RateLimiterRegistry(double rate_per_sec, int64_t burst)
      : rate_per_sec_(rate_per_sec), burst_(burst) {}

  RateLimiterRegistry(const RateLimiterRegistry&) = delete;
  RateLimiterRegistry& operator=(const RateLimiterRegistry&) = delete;

  // Returns the limiter for `key`, creating it (full bucket) on first use.
  RateLimiter& ForKey(const std::string& key);

  bool enabled() const { return rate_per_sec_ > 0.0; }

 private:
  const double rate_per_sec_;
  const int64_t burst_;
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<RateLimiter>> limiters_;
};

}  // namespace msql

#endif  // MSQL_RUNTIME_RATE_LIMITER_H_
