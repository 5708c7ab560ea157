#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace msql {

namespace {

// Admission waits poll in short slices rather than blocking until
// notified: a waiter must observe Session::Cancel / Engine::CancelAll and
// its own deadline promptly even when no completion wakes it.
constexpr auto kWaitSlice = std::chrono::milliseconds(1);

}  // namespace

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(options), pool_(options.num_threads) {
  global_limiter_.Configure(options_.global_rate_limit_qps,
                            options_.global_rate_limit_burst);
}

QueryScheduler::~QueryScheduler() {
  Drain();
  pool_.Shutdown();
}

QueryScheduler::SchedMetrics QueryScheduler::MetricsFor(Engine& engine) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  if (metrics_engine_ != &engine) {
    obs::MetricsRegistry& reg = engine.metrics();
    cached_metrics_.rejections = reg.GetCounter(
        "msql_scheduler_admission_rejections_total",
        "Submissions shed by admission (caps or rate limit) after their "
        "bounded wait");
    cached_metrics_.rate_limited = reg.GetCounter(
        "msql_rate_limited_total",
        "Submissions shed because a rate-limit token was not available "
        "within the wait budget");
    cached_metrics_.retries = reg.GetCounter(
        "msql_retries_total",
        "Retry attempts made by SubmitWithRetry after retryable failures");
    cached_metrics_.queue_wait_ms = reg.GetHistogram(
        "msql_scheduler_queue_wait_ms",
        "Time admitted statements waited for a worker",
        obs::MetricsRegistry::LatencyBucketsMs());
    cached_metrics_.queue_depth = reg.GetHistogram(
        "msql_scheduler_queue_depth",
        "Admitted-but-unfinished statements observed at each admission",
        obs::MetricsRegistry::DepthBuckets());
    cached_metrics_.admission_wait_seconds = reg.GetHistogram(
        "msql_admission_wait_seconds",
        "Time submissions spent in bounded-wait admission (rate-limit gate "
        "plus slot wait), successful or shed",
        obs::MetricsRegistry::LatencyBucketsSeconds());
    metrics_engine_ = &engine;
  }
  return cached_metrics_;
}

Status QueryScheduler::WaitForRateTokens(
    const SessionPtr& session, const CancelTokenPtr& token,
    uint64_t generation, std::chrono::steady_clock::time_point wait_deadline,
    bool has_deadline, std::chrono::steady_clock::time_point deadline,
    const SchedMetrics& metrics) {
  const auto& generation_counter = session->engine().cancel_generation_;
  while (true) {
    if (token->cancelled()) {
      return Status(ErrorCode::kCancelled,
                    "submission cancelled while rate-limit gated");
    }
    if (generation_counter->load(std::memory_order_relaxed) != generation) {
      return Status(ErrorCode::kCancelled,
                    "submission flushed by Engine::CancelAll while "
                    "rate-limit gated");
    }
    // Global bucket first (the broad gate), then the session's. Under
    // overload a token burnt on a submission the narrower gate then defers
    // only makes admission stricter, which is the safe direction.
    int64_t defer_us = global_limiter_.TryAcquire();
    if (defer_us == 0) defer_us = session->rate_limiter_.TryAcquire();
    if (defer_us == 0) return Status::Ok();
    const auto now = std::chrono::steady_clock::now();
    if (has_deadline && now >= deadline) {
      return Status(ErrorCode::kDeadlineExceeded,
                    "query deadline exceeded while rate-limit gated");
    }
    if (now + std::chrono::microseconds(defer_us) > wait_deadline) {
      metrics.rate_limited->Increment();
      metrics.rejections->Increment();
      return Status(ErrorCode::kResourceExhausted,
                    StrCat("admission rate limited (next token in ",
                           defer_us, "us, beyond the wait budget)"));
    }
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        std::chrono::microseconds(defer_us), kWaitSlice));
  }
}

Status QueryScheduler::WaitForSlots(
    const SessionPtr& session, const CancelTokenPtr& token,
    uint64_t generation, std::chrono::steady_clock::time_point wait_deadline,
    bool has_deadline, std::chrono::steady_clock::time_point deadline,
    const SchedMetrics& metrics) {
  const auto& generation_counter = session->engine().cancel_generation_;
  std::unique_lock<std::mutex> lock(admit_mu_);
  while (true) {
    if (token->cancelled()) {
      return Status(ErrorCode::kCancelled,
                    "submission cancelled while waiting for admission");
    }
    if (generation_counter->load(std::memory_order_relaxed) != generation) {
      return Status(ErrorCode::kCancelled,
                    "submission flushed by Engine::CancelAll while waiting "
                    "for admission");
    }
    const size_t pending = pending_.load(std::memory_order_acquire);
    const int inflight = session->inflight_.load(std::memory_order_acquire);
    if (pending < options_.max_pending &&
        inflight < options_.max_inflight_per_session) {
      pending_.fetch_add(1, std::memory_order_acq_rel);
      session->inflight_.fetch_add(1, std::memory_order_acq_rel);
      metrics.queue_depth->Observe(static_cast<double>(pending + 1));
      return Status::Ok();
    }
    const auto now = std::chrono::steady_clock::now();
    if (has_deadline && now >= deadline) {
      metrics.rejections->Increment();
      return Status(ErrorCode::kDeadlineExceeded,
                    "query deadline exceeded while waiting for admission");
    }
    if (now >= wait_deadline) {
      metrics.rejections->Increment();
      if (pending >= options_.max_pending) {
        return Status(ErrorCode::kResourceExhausted,
                      StrCat("scheduler admission queue full (max_pending=",
                             options_.max_pending, ")"));
      }
      return Status(
          ErrorCode::kResourceExhausted,
          StrCat("session ", session->id(), " at its in-flight limit (",
                 options_.max_inflight_per_session, ")"));
    }
    admit_cv_.wait_for(lock, kWaitSlice);
  }
}

Result<QueryScheduler::QueryFuture> QueryScheduler::Submit(
    const SessionPtr& session, std::string sql) {
  const SchedMetrics metrics = MetricsFor(session->engine());
  MSQL_FAULT_POINT("runtime.admission_wait");

  const auto submit_time = std::chrono::steady_clock::now();
  // The query's absolute deadline is stamped now, before any waiting, so
  // queue time charges against the statement's own timeout budget.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  if (session->options_.timeout_ms > 0) {
    has_deadline = true;
    deadline =
        submit_time + std::chrono::milliseconds(session->options_.timeout_ms);
  }
  auto wait_deadline = submit_time;  // max_admission_wait_ms == 0: no wait
  if (options_.max_admission_wait_ms > 0) {
    wait_deadline =
        submit_time + std::chrono::milliseconds(options_.max_admission_wait_ms);
  }
  if (has_deadline && deadline < wait_deadline) wait_deadline = deadline;

  // Register the cancel token before waiting: Session::Cancel() and
  // Engine::CancelAll() must reach submissions still in admission.
  CancelTokenPtr token = session->AcquireToken();
  const uint64_t generation =
      session->engine().cancel_generation_->load(std::memory_order_relaxed);

  Status admitted = WaitForRateTokens(session, token, generation,
                                      wait_deadline, has_deadline, deadline,
                                      metrics);
  if (admitted.ok()) {
    admitted = WaitForSlots(session, token, generation, wait_deadline,
                            has_deadline, deadline, metrics);
  }
  const int64_t admission_wait_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - submit_time)
          .count();
  metrics.admission_wait_seconds->Observe(
      static_cast<double>(admission_wait_us) / 1e6);
  if (!admitted.ok()) {
    session->ReleaseToken(token);
    return admitted;
  }

  ScheduledRun run;
  run.admission_wait_us = admission_wait_us;
  run.token = token;
  run.has_deadline = has_deadline;
  run.deadline = deadline;
  run.cancel_generation = generation;

  const auto enqueued = std::chrono::steady_clock::now();
  obs::Histogram* queue_wait_ms = metrics.queue_wait_ms;
  auto generation_counter = session->engine().cancel_generation_;
  auto task = std::make_shared<std::packaged_task<Result<ResultSet>()>>(
      [session, sql = std::move(sql), run, enqueued, queue_wait_ms,
       generation, generation_counter]() mutable -> Result<ResultSet> {
        const auto started = std::chrono::steady_clock::now();
        const int64_t wait_us =
            std::chrono::duration_cast<std::chrono::microseconds>(started -
                                                                  enqueued)
                .count();
        queue_wait_ms->Observe(static_cast<double>(wait_us) / 1000.0);
        // Queued-but-unstarted flush: a token fired or a CancelAll issued
        // while this statement sat in the worker queue cancels it without
        // executing a single operator.
        if (run.token->cancelled() ||
            generation_counter->load(std::memory_order_relaxed) !=
                generation) {
          session->ReleaseToken(run.token);
          return Status(ErrorCode::kCancelled,
                        "query cancelled while queued (never started)");
        }
        if (run.has_deadline && started >= run.deadline) {
          session->ReleaseToken(run.token);
          return Status(ErrorCode::kDeadlineExceeded,
                        "query deadline exceeded while queued");
        }
        run.queue_wait_us = wait_us;
        return session->QueryScheduled(sql, run);
      });
  QueryFuture future = task->get_future();

  const bool submitted = pool_.Submit([this, session, task] {
    (*task)();
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      session->inflight_.fetch_sub(1, std::memory_order_acq_rel);
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    admit_cv_.notify_all();
    drain_cv_.notify_all();
  });
  if (!submitted) {
    session->ReleaseToken(token);
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      session->inflight_.fetch_sub(1, std::memory_order_acq_rel);
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    return Status(ErrorCode::kCancelled, "scheduler is shut down");
  }
  return future;
}

Result<ResultSet> QueryScheduler::SubmitWithRetry(const SessionPtr& session,
                                                  std::string sql,
                                                  const RetryPolicy& policy) {
  const SchedMetrics metrics = MetricsFor(session->engine());
  const int attempts = std::max(1, policy.max_attempts);
  Status last = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    Result<QueryFuture> submitted = Submit(session, sql);
    if (submitted.ok()) {
      Result<ResultSet> result = submitted.value().get();
      if (result.ok()) return result;
      last = result.status();
    } else {
      last = submitted.status();
    }
    if (!last.IsRetryable() || attempt + 1 >= attempts) return last;
    MSQL_FAULT_POINT("runtime.retry_backoff");
    metrics.retries->Increment();
    const int64_t backoff_us = RetryBackoffUs(policy, attempt);
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(admit_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace msql
