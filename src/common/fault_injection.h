#ifndef MSQL_COMMON_FAULT_INJECTION_H_
#define MSQL_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace msql {

// Deterministic fault-injection harness. The engine is instrumented with
// named checkpoints (MSQL_FAULT_POINT) on its fallible paths: statement
// dispatch, binding, plan execution, subquery and measure evaluation,
// catalog mutation, CSV import/export, scheduler admission and retry
// backoff. The injector is compiled unconditionally but is a no-op (one
// predictable branch per checkpoint) until armed.
//
// Armed with ArmAt(n), the nth checkpoint reached (1-based) returns an
// injected non-OK Status exactly once; every other checkpoint passes.
// Armed with ArmAt(0) the injector only counts checkpoints, which lets a
// sweep test first measure how many checkpoints a workload crosses and then
// step the failure through every one of them:
//
//   auto& fi = FaultInjector::Instance();
//   fi.ArmAt(0); RunWorkload(); int64_t n = fi.hits(); fi.Reset();
//   for (int64_t i = 1; i <= n; ++i) {
//     fi.ArmAt(i);
//     RunWorkload();          // must fail cleanly, never crash
//     fi.Reset();
//     CheckEngineStillWorks();
//   }
//
// Armed with ArmSite(site, k), every checkpoint whose name equals `site`
// fires, up to k times total — the mode the overload chaos test uses to
// make a specific fault point (e.g. measure.grouped_index_build) fail
// repeatedly under concurrent load, degrading each query it hits.
//
// The injector is a process-wide singleton. Arming/Reset are test-side
// control operations; Checkpoint() is safe to reach from many query
// threads at once (relaxed atomics — counting, not ordering), so sweep
// and chaos workloads may cross checkpoints on pool workers.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms the injector: fire at the `fail_at`th checkpoint (1-based) with
  // `code`. fail_at <= 0 counts checkpoints without ever firing.
  void ArmAt(int64_t fail_at, ErrorCode code = ErrorCode::kExecution);

  // Arms the injector on one named checkpoint: the next `times` hits of
  // `site` fire (other checkpoints pass and are counted as usual).
  void ArmSite(std::string site, int64_t times,
               ErrorCode code = ErrorCode::kExecution);

  // Disarms and zeroes the hit counter.
  void Reset();

  bool active() const { return active_.load(std::memory_order_acquire); }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  bool fired() const { return fired_.load(std::memory_order_relaxed); }
  // How many times the injector fired (ArmAt fires at most once; ArmSite up
  // to its `times` budget).
  int64_t fire_count() const {
    return fire_count_.load(std::memory_order_relaxed);
  }
  // Checkpoint name that fired first, for sweep diagnostics. Empty if none.
  std::string fired_site() const;

  // Called by MSQL_FAULT_POINT at each checkpoint while active.
  Status Checkpoint(const char* site);

 private:
  std::atomic<bool> active_{false};
  std::atomic<bool> fired_{false};
  std::atomic<int64_t> fail_at_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> fire_count_{0};
  // ArmSite state: remaining fire budget; negative = site mode disabled.
  std::atomic<int64_t> site_budget_{-1};
  ErrorCode code_ = ErrorCode::kExecution;  // written only while disarmed
  mutable std::mutex site_mu_;
  std::string site_;        // ArmSite target; empty in ArmAt mode
  std::string fired_site_;  // first checkpoint that fired
};

}  // namespace msql

// Names a fault-injection checkpoint on a fallible path. Expands to a
// single branch when the injector is disarmed (the default).
#define MSQL_FAULT_POINT(site)                                        \
  do {                                                                \
    if (::msql::FaultInjector::Instance().active()) {                 \
      MSQL_RETURN_IF_ERROR(                                           \
          ::msql::FaultInjector::Instance().Checkpoint(site));        \
    }                                                                 \
  } while (0)

#endif  // MSQL_COMMON_FAULT_INJECTION_H_
