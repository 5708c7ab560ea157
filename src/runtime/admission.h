#ifndef MSQL_RUNTIME_ADMISSION_H_
#define MSQL_RUNTIME_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/engine.h"
#include "runtime/rate_limiter.h"
#include "runtime/session.h"

namespace msql {

// Admission settings, shared by QueryScheduler (SchedulerOptions) and msqld
// (net::ServerOptions).
struct AdmissionOptions {
  // How long a statement may wait for a rate-limit token (and, under
  // QueryScheduler, a slot) before being shed with kResourceExhausted. The
  // wait never outlasts the statement's own deadline. 0 is instant-reject
  // admission — the ablation baseline bench_overload compares against.
  int64_t max_admission_wait_ms = 100;
  // One GCRA token bucket per user (Session::user()); 0 qps = unlimited.
  double per_user_rate_limit_qps = 0.0;
  int64_t per_user_rate_limit_burst = 16;
};

// Caps on admitted-but-unreleased statements, across all sessions and per
// session (SchedulerOptions::max_pending / max_inflight_per_session).
// QueryScheduler admits under them; msqld admits without (a connection has
// one statement in flight and the statement worker pool bounds the rest),
// so a wire statement pays for no slot accounting.
struct AdmissionSlots {
  size_t max_pending;
  int max_inflight_per_session;
};

// The one admission path (docs/CONCURRENCY.md). Open() stamps a
// statement's deadline and registers its cancel token; Admit() takes a
// token from the user's bucket and, under slot caps, reserves a slot,
// waiting within the smaller of max_admission_wait_ms and the deadline. Session::Cancel()
// and Engine::CancelAll() end the wait with kCancelled; an expired deadline
// with kDeadlineExceeded; an expired wait budget sheds with
// kResourceExhausted (counted in msql_rate_limited_total when the rate
// gate was the blocker). QueryScheduler::Submit opens, admits, then
// enqueues; msqld opens at frame dispatch and admits on its statement
// worker.
class Admission {
 public:
  using Clock = std::chrono::steady_clock;

  Admission(AdmissionOptions options, std::optional<AdmissionSlots> slots);

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  // Opens the ticket of one statement of `session` submitted now, with a
  // budget of `timeout_ms` (<= 0: no deadline). From here on
  // Session::Cancel() and Engine::CancelAll() reach the statement, also
  // while it waits for a worker. The ticket counts as queued from now until
  // the caller stamps `dequeued_at` (a caller that queues only after
  // admission restamps `queued_at`). Every opened ticket ends in one
  // Release(), admitted or not.
  static AdmissionTicket Open(Session& session, int64_t timeout_ms);

  // Admits the statement of an opened ticket. On success under slot caps
  // the ticket holds its slot until Release().
  Status Admit(Session& session, AdmissionTicket* ticket);

  // Unregisters the ticket's token and returns its slot, if it holds one.
  void Release(Session& session, const AdmissionTicket& ticket);

  // Blocks until every admitted statement has been released.
  void Drain();

  size_t pending() const { return pending_.load(std::memory_order_acquire); }

  // Admission metrics live in the engine's registry; they are resolved
  // once per engine (one Admission may in principle serve sessions of
  // several engines) and read lock-free after that.
  struct Metrics {
    obs::Counter* rejections = nullptr;
    obs::Counter* rate_limited = nullptr;
    obs::Histogram* queue_wait_ms = nullptr;
    obs::Histogram* queue_depth = nullptr;
    obs::Histogram* admission_wait_seconds = nullptr;
  };
  const Metrics& MetricsFor(Engine& engine);

 private:
  Status Wait(Session& session, AdmissionTicket* ticket,
              Clock::time_point wait_deadline, const Metrics& metrics);

  const AdmissionOptions options_;
  const std::optional<AdmissionSlots> slots_;
  RateLimiterRegistry limiters_;
  std::atomic<size_t> pending_{0};

  // One mutex covers slot reservation, release and Drain(); waiters poll
  // in ~1ms slices so cancellation and deadlines are honored even if a
  // notify is missed.
  std::mutex mu_;
  std::condition_variable slot_cv_;
  std::condition_variable drain_cv_;

  struct EngineMetrics {
    Engine* engine;
    Metrics metrics;
  };
  // Resolved records are immutable and live as long as the Admission, so
  // readers of `last_metrics_` need no lock.
  std::atomic<const EngineMetrics*> last_metrics_{nullptr};
  std::mutex metrics_mu_;  // guards resolved_metrics_
  std::vector<std::unique_ptr<const EngineMetrics>> resolved_metrics_;
};

}  // namespace msql

#endif  // MSQL_RUNTIME_ADMISSION_H_
