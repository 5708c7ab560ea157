#include "runtime/admission.h"

#include <algorithm>
#include <thread>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace msql {

namespace {

// Admission waits poll in short slices rather than blocking until
// notified: a waiter must observe Session::Cancel / Engine::CancelAll and
// its own deadline promptly even when no release wakes it.
constexpr auto kWaitSlice = std::chrono::milliseconds(1);

}  // namespace

Admission::Admission(AdmissionOptions options,
                     std::optional<AdmissionSlots> slots)
    : options_(options),
      slots_(slots),
      limiters_(options.per_user_rate_limit_qps,
                options.per_user_rate_limit_burst) {}

const Admission::Metrics& Admission::MetricsFor(Engine& engine) {
  const EngineMetrics* last = last_metrics_.load(std::memory_order_acquire);
  if (last != nullptr && last->engine == &engine) return last->metrics;
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (const auto& resolved : resolved_metrics_) {
    if (resolved->engine == &engine) {
      last_metrics_.store(resolved.get(), std::memory_order_release);
      return resolved->metrics;
    }
  }
  obs::MetricsRegistry& reg = engine.metrics();
  Metrics m;
  m.rejections = reg.GetCounter(
      "msql_scheduler_admission_rejections_total",
      "Statements shed by admission (caps, rate limit or deadline) after "
      "their bounded wait");
  m.rate_limited = reg.GetCounter(
      "msql_rate_limited_total",
      "Statements shed because a rate-limit token was not available "
      "within the wait budget");
  m.queue_wait_ms = reg.GetHistogram(
      "msql_scheduler_queue_wait_ms",
      "Time admitted statements waited for a worker",
      obs::MetricsRegistry::LatencyBucketsMs());
  m.queue_depth = reg.GetHistogram(
      "msql_scheduler_queue_depth",
      "Admitted-but-unfinished statements observed at each admission",
      obs::MetricsRegistry::DepthBuckets());
  m.admission_wait_seconds = reg.GetHistogram(
      "msql_admission_wait_seconds",
      "Time statements spent in bounded-wait admission (rate-limit gate "
      "plus slot wait), successful or shed",
      obs::MetricsRegistry::LatencyBucketsSeconds());
  resolved_metrics_.push_back(
      std::make_unique<const EngineMetrics>(EngineMetrics{&engine, m}));
  last_metrics_.store(resolved_metrics_.back().get(),
                      std::memory_order_release);
  return resolved_metrics_.back()->metrics;
}

AdmissionTicket Admission::Open(Session& session, int64_t timeout_ms) {
  AdmissionTicket ticket;
  ticket.queued_at = Clock::now();
  // The deadline counts from submission, so time spent queued before
  // admission and waiting in it charges the statement's own budget.
  if (timeout_ms > 0) {
    ticket.has_deadline = true;
    ticket.deadline = ticket.queued_at + std::chrono::milliseconds(timeout_ms);
  }
  ticket.token = session.AcquireToken();
  ticket.cancel_generation =
      session.engine().cancel_generation_->load(std::memory_order_relaxed);
  return ticket;
}

Status Admission::Admit(Session& session, AdmissionTicket* ticket) {
  const Metrics& metrics = MetricsFor(session.engine());
  MSQL_FAULT_POINT("runtime.admission_wait");

  ticket->admission_start = Clock::now();
  auto wait_deadline =
      ticket->admission_start +
      std::chrono::milliseconds(
          std::max<int64_t>(0, options_.max_admission_wait_ms));
  if (ticket->has_deadline && ticket->deadline < wait_deadline) {
    wait_deadline = ticket->deadline;
  }
  Status admitted = Wait(session, ticket, wait_deadline, metrics);
  ticket->admitted_at = Clock::now();
  metrics.admission_wait_seconds->Observe(
      std::chrono::duration<double>(ticket->admitted_at -
                                    ticket->admission_start)
          .count());
  return admitted;
}

Status Admission::Wait(Session& session, AdmissionTicket* ticket,
                       Clock::time_point wait_deadline,
                       const Metrics& metrics) {
  const std::atomic<uint64_t>& generation =
      *session.engine().cancel_generation_;
  RateLimiter* limiter =
      limiters_.enabled() ? &limiters_.ForKey(session.user()) : nullptr;
  bool have_rate_token = limiter == nullptr;
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  while (true) {
    if (ticket->token->cancelled()) {
      return Status(ErrorCode::kCancelled,
                    "statement cancelled while waiting for admission");
    }
    if (generation.load(std::memory_order_relaxed) !=
        ticket->cancel_generation) {
      return Status(ErrorCode::kCancelled,
                    "statement flushed by Engine::CancelAll while waiting "
                    "for admission");
    }
    const auto now = Clock::now();
    if (ticket->has_deadline && now >= ticket->deadline) {
      metrics.rejections->Increment();
      return Status(ErrorCode::kDeadlineExceeded,
                    "query deadline exceeded while waiting for admission");
    }

    // Rate-limit gate: the user's bucket, once per statement.
    if (!have_rate_token) {
      const int64_t defer_us = limiter->TryAcquire();
      if (defer_us > 0) {
        if (now + std::chrono::microseconds(defer_us) > wait_deadline) {
          metrics.rate_limited->Increment();
          metrics.rejections->Increment();
          ticket->rate_limited = true;
          return Status(ErrorCode::kResourceExhausted,
                        StrCat("user '", session.user(),
                               "' admission rate limited (next token in ",
                               defer_us, "us, beyond the wait budget)"));
        }
        std::this_thread::sleep_for(
            std::min<Clock::duration>(std::chrono::microseconds(defer_us),
                                      kWaitSlice));
        continue;
      }
      have_rate_token = true;
    }

    if (!slots_.has_value()) return Status::Ok();
    // Slot: a pending slot across all sessions plus one of the session's.
    if (!lock.owns_lock()) lock.lock();
    const size_t pending = pending_.load(std::memory_order_acquire);
    const int inflight = session.inflight_.load(std::memory_order_acquire);
    if (pending < slots_->max_pending &&
        inflight < slots_->max_inflight_per_session) {
      pending_.fetch_add(1, std::memory_order_acq_rel);
      session.inflight_.fetch_add(1, std::memory_order_acq_rel);
      metrics.queue_depth->Observe(static_cast<double>(pending + 1));
      ticket->holds_slot = true;
      return Status::Ok();
    }
    if (now >= wait_deadline) {
      metrics.rejections->Increment();
      if (pending >= slots_->max_pending) {
        return Status(ErrorCode::kResourceExhausted,
                      StrCat("admission queue full (max_pending=",
                             slots_->max_pending, ")"));
      }
      return Status(
          ErrorCode::kResourceExhausted,
          StrCat("session ", session.id(), " at its in-flight limit (",
                 slots_->max_inflight_per_session, ")"));
    }
    slot_cv_.wait_for(lock, kWaitSlice);
  }
}

void Admission::Release(Session& session, const AdmissionTicket& ticket) {
  session.ReleaseToken(ticket.token);
  if (!ticket.holds_slot) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session.inflight_.fetch_sub(1, std::memory_order_acq_rel);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
  slot_cv_.notify_all();
  drain_cv_.notify_all();
}

void Admission::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace msql
