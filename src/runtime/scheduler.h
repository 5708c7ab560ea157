#ifndef MSQL_RUNTIME_SCHEDULER_H_
#define MSQL_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "engine/engine.h"
#include "runtime/rate_limiter.h"
#include "runtime/retry.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"

namespace msql {

struct SchedulerOptions {
  // Worker threads executing admitted queries.
  int num_threads = 4;
  // Admitted-but-unfinished statement cap across all sessions; submissions
  // beyond it wait (bounded) for a slot, then are shed with
  // kResourceExhausted (load shedding, not unbounded queueing). 0 is a
  // zero-capacity queue that sheds every submission — tests use it to
  // force the rejection path deterministically.
  size_t max_pending = 256;
  // Per-session concurrent statement cap.
  int max_inflight_per_session = 8;
  // Bounded-wait admission (docs/CONCURRENCY.md): how long a submission
  // may wait for rate-limit tokens and a pending slot before being shed.
  // The wait never exceeds the query's own deadline (session timeout_ms,
  // measured from submission). 0 restores instant-reject admission — the
  // ablation baseline bench_overload compares against.
  int64_t max_admission_wait_ms = 100;
  // Global admission token bucket across all sessions, applied before the
  // per-session bucket (EngineOptions::admission_rate_limit_qps). 0 =
  // unlimited.
  double global_rate_limit_qps = 0.0;
  int64_t global_rate_limit_burst = 16;
};

// Admission-controlled concurrent query execution: a fixed worker pool fed
// by Submit(). Admission runs a small state machine per submission
// (docs/CONCURRENCY.md): rate-limit gate (global bucket, then the
// session's) -> bounded wait for a pending + per-session slot -> enqueue.
// A submission that cannot clear a stage within its wait budget — the
// smaller of max_admission_wait_ms and the query's own deadline — is shed
// with kResourceExhausted (or kDeadlineExceeded when its deadline expired
// while waiting). Cancellation composes at every stage: Session::Cancel()
// and Engine::CancelAll() reach waiting and queued-but-unstarted
// submissions, which unwind with kCancelled without executing, as well as
// admitted queries through the per-query tokens / engine cancel
// generation. When the session sets timeout_ms, the absolute deadline is
// stamped at submission and propagated into the query guard, so queue wait
// and execution charge one budget.
class QueryScheduler {
 public:
  using QueryFuture = std::future<Result<ResultSet>>;

  explicit QueryScheduler(SchedulerOptions options = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Admits `sql` for execution on `session`'s behalf. On admission the
  // returned future eventually holds the statement's result (possibly an
  // error status); on shed the Result carries kResourceExhausted /
  // kDeadlineExceeded, on cancellation during the wait kCancelled.
  Result<QueryFuture> Submit(const SessionPtr& session, std::string sql);

  // Submit + wait, retrying retryable failures (Status::IsRetryable —
  // admission sheds and other transient pressure) with capped exponential
  // backoff and deterministic seeded jitter (runtime/retry.h). Each
  // attempt gets a fresh deadline from the session's timeout_ms. Returns
  // the first success or the last attempt's failure.
  Result<ResultSet> SubmitWithRetry(const SessionPtr& session,
                                    std::string sql,
                                    const RetryPolicy& policy);

  // Blocks until every admitted statement has finished.
  void Drain();

  size_t pending() const { return pending_.load(std::memory_order_acquire); }
  const SchedulerOptions& options() const { return options_; }

 private:
  // Scheduler metrics live in the engine's registry (one scheduler may in
  // principle serve sessions of several engines; instruments are re-resolved
  // when the engine changes, cached otherwise).
  struct SchedMetrics {
    obs::Counter* rejections = nullptr;
    obs::Counter* rate_limited = nullptr;
    obs::Counter* retries = nullptr;
    obs::Histogram* queue_wait_ms = nullptr;
    obs::Histogram* queue_depth = nullptr;
    obs::Histogram* admission_wait_seconds = nullptr;
  };
  SchedMetrics MetricsFor(Engine& engine);

  // Admission stages; both poll `token` and the engine cancel generation
  // (snapshot `generation`) so cancellation is honored while waiting, and
  // both give up at `wait_deadline`. `deadline` (valid when has_deadline)
  // distinguishes a shed (kResourceExhausted) from an expired query
  // deadline (kDeadlineExceeded).
  Status WaitForRateTokens(const SessionPtr& session,
                           const CancelTokenPtr& token, uint64_t generation,
                           std::chrono::steady_clock::time_point wait_deadline,
                           bool has_deadline,
                           std::chrono::steady_clock::time_point deadline,
                           const SchedMetrics& metrics);
  Status WaitForSlots(const SessionPtr& session, const CancelTokenPtr& token,
                      uint64_t generation,
                      std::chrono::steady_clock::time_point wait_deadline,
                      bool has_deadline,
                      std::chrono::steady_clock::time_point deadline,
                      const SchedMetrics& metrics);

  SchedulerOptions options_;
  RateLimiter global_limiter_;
  std::atomic<size_t> pending_{0};

  // One mutex covers slot reservation, completion accounting and Drain();
  // admission waiters poll in ~1ms slices so cancellation and deadlines
  // are honored even if a notify is missed.
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::condition_variable drain_cv_;

  std::mutex metrics_mu_;
  Engine* metrics_engine_ = nullptr;
  SchedMetrics cached_metrics_;

  ThreadPool pool_;  // last member: workers stop before the rest dies
};

}  // namespace msql

#endif  // MSQL_RUNTIME_SCHEDULER_H_
