// Overload resilience (docs/ROBUSTNESS.md, docs/CONCURRENCY.md): token-
// bucket rate limiting, retry backoff, bounded-wait admission with deadline
// propagation, cancellation reaching queued-but-unstarted work, and the
// observability surface of all of it (metrics, trace spans, EXPLAIN
// ANALYZE outcome lines).

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "runtime/rate_limiter.h"
#include "runtime/retry.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"

namespace msql {
namespace {

// Loads `n` rows of (k INTEGER, v INTEGER) into table T.
void LoadInts(Engine* db, int n, int distinct_keys) {
  ASSERT_TRUE(db->Execute("CREATE TABLE T (k INTEGER, v INTEGER)").ok());
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int(i % distinct_keys), Value::Int(i)});
  }
  ASSERT_TRUE(db->InsertRows("T", std::move(rows)).ok());
}

// A query that takes long enough (hundreds of ms) to hold a worker while
// other submissions queue behind it, but always terminates.
const char* kSlowQuery =
    "SELECT COUNT(*) FROM T a, T b, T c WHERE a.v + b.v + c.v < 0";

// ---------------------------------------------------------------------------
// RateLimiter
// ---------------------------------------------------------------------------

TEST(RateLimiterTest, DisabledLimiterAlwaysAdmits) {
  RateLimiter limiter;  // rate 0 = disabled
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(limiter.TryAcquire(), 0);
}

TEST(RateLimiterTest, AdmitsBurstThenDefers) {
  // 100 qps, burst 4: four immediate tokens, then a defer hint of up to one
  // token interval (10ms).
  RateLimiter limiter(100.0, 4);
  ASSERT_TRUE(limiter.enabled());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(limiter.TryAcquire(), 0) << "burst token " << i;
  }
  const int64_t defer_us = limiter.TryAcquire();
  EXPECT_GT(defer_us, 0);
  EXPECT_LE(defer_us, 10 * 1000);
}

TEST(RateLimiterTest, TokensRefillOverTime) {
  RateLimiter limiter(1000.0, 1);  // one token per millisecond
  EXPECT_EQ(limiter.TryAcquire(), 0);
  EXPECT_GT(limiter.TryAcquire(), 0);  // bucket empty
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(limiter.TryAcquire(), 0);  // refilled
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(RetryTest, BackoffIsDeterministicCappedAndJittered) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 4;
  policy.max_backoff_ms = 32;
  policy.multiplier = 2.0;
  policy.jitter_seed = 7;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int64_t a = RetryBackoffUs(policy, attempt);
    const int64_t b = RetryBackoffUs(policy, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;  // seeded jitter: reproducible
    const int64_t nominal_ms =
        std::min<int64_t>(policy.max_backoff_ms, 4 << attempt);
    EXPECT_GE(a, nominal_ms * 1000 / 2) << "attempt " << attempt;
    EXPECT_LT(a, nominal_ms * 1000) << "attempt " << attempt;
  }
  // Different seeds decorrelate concurrent retriers.
  RetryPolicy other = policy;
  other.jitter_seed = 8;
  EXPECT_NE(RetryBackoffUs(policy, 0), RetryBackoffUs(other, 0));
}

TEST(RetryTest, OnlyResourceExhaustedIsRetryable) {
  EXPECT_TRUE(Status(ErrorCode::kResourceExhausted, "shed").IsRetryable());
  EXPECT_FALSE(Status::Ok().IsRetryable());
  EXPECT_FALSE(Status(ErrorCode::kCancelled, "c").IsRetryable());
  EXPECT_FALSE(Status(ErrorCode::kDeadlineExceeded, "d").IsRetryable());
  EXPECT_FALSE(Status(ErrorCode::kExecution, "e").IsRetryable());
  EXPECT_FALSE(Status(ErrorCode::kCatalog, "t").IsRetryable());
}

// ---------------------------------------------------------------------------
// Bounded-wait admission
// ---------------------------------------------------------------------------

TEST(AdmissionTest, BoundedWaitRidesOutTransientSaturation) {
  Engine db;
  LoadInts(&db, 120, 120);
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_pending = 1;             // the slow query saturates the scheduler
  opts.max_admission_wait_ms = 10 * 1000;
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();

  auto slow = scheduler.Submit(session, kSlowQuery);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  // Instant-reject would shed this immediately (max_pending reached);
  // bounded wait holds it until the slow query frees the slot.
  auto fast = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  auto fast_result = fast.take().get();
  ASSERT_TRUE(fast_result.ok()) << fast_result.status().ToString();
  EXPECT_EQ(fast_result.value().Get(0, 0).int_val(), 120);
  ASSERT_TRUE(slow.take().get().ok());
  scheduler.Drain();
}

TEST(AdmissionTest, ShedsWithResourceExhaustedWhenWaitExpires) {
  Engine db;
  LoadInts(&db, 10, 10);
  SchedulerOptions opts;
  opts.max_pending = 0;  // no slot will ever free up
  opts.max_admission_wait_ms = 30;
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();
  auto f = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(f.status().message().find("queue full"), std::string::npos)
      << f.status().ToString();
  EXPECT_TRUE(f.status().IsRetryable());
}

TEST(AdmissionTest, CancelReachesSubmissionWaitingForAdmission) {
  Engine db;
  LoadInts(&db, 10, 10);
  SchedulerOptions opts;
  opts.max_pending = 0;
  opts.max_admission_wait_ms = 10 * 1000;  // would wait 10s without cancel
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();
  std::thread canceller([&session] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    session->Cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto f = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  canceller.join();
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), ErrorCode::kCancelled);
  // The wait ended at the cancel, not at the 10s budget.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(AdmissionTest, CancelAllFlushesQueuedButUnstartedWork) {
  Engine db;
  LoadInts(&db, 150, 150);
  SchedulerOptions opts;
  opts.num_threads = 1;  // one worker: later submissions queue behind kSlow
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();

  std::vector<QueryScheduler::QueryFuture> futures;
  auto slow = scheduler.Submit(session, kSlowQuery);
  ASSERT_TRUE(slow.ok());
  futures.push_back(slow.take());
  for (int i = 0; i < 4; ++i) {
    auto f = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(f.take());
  }
  db.CancelAll();
  // Every future resolves (no lost completions), each with kCancelled: the
  // running query unwound, the queued ones were flushed without starting.
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kCancelled)
        << r.status().ToString();
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(session->inflight(), 0);
  // CancelAll is scoped to the statements that existed when it was called.
  auto again = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(again.ok());
  auto r = again.take().get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).int_val(), 150);
}

// ---------------------------------------------------------------------------
// Deadline propagation
// ---------------------------------------------------------------------------

TEST(DeadlineTest, SubmissionDeadlineCoversExecution) {
  Engine db;
  LoadInts(&db, 2000, 2000);
  QueryScheduler scheduler;
  SessionPtr session = db.CreateSession();
  session->options().timeout_ms = 50;
  auto f = scheduler.Submit(session, kSlowQuery);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto r = f.take().get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos)
      << r.status().ToString();
}

TEST(DeadlineTest, QueueWaitChargesTheDeadlineBudget) {
  Engine db;
  LoadInts(&db, 150, 150);
  SchedulerOptions opts;
  opts.num_threads = 1;
  QueryScheduler scheduler(opts);
  SessionPtr slow_session = db.CreateSession();       // no deadline
  SessionPtr deadlined = db.CreateSession();
  deadlined->options().timeout_ms = 40;  // shorter than the slow query

  auto slow = scheduler.Submit(slow_session, kSlowQuery);
  ASSERT_TRUE(slow.ok());
  // Queues behind the slow query; its 40ms budget burns while waiting, so
  // it must resolve with kDeadlineExceeded — queued or just-started, the
  // same one deadline applies.
  auto f = scheduler.Submit(deadlined, "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto r = f.take().get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded)
      << r.status().ToString();
  ASSERT_TRUE(slow.take().get().ok());
  scheduler.Drain();
}

// ---------------------------------------------------------------------------
// SubmitWithRetry
// ---------------------------------------------------------------------------

TEST(RetryTest, SubmitWithRetryRidesOutShedding) {
  Engine db;
  LoadInts(&db, 150, 150);
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_pending = 1;
  opts.max_admission_wait_ms = 0;  // instant reject: every shed is a retry
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();

  auto slow = scheduler.Submit(session, kSlowQuery);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  // The slow query holds the worker for a couple of seconds; give the
  // retry loop ample budget (it exits on the first success, so the bound
  // is never reached in practice).
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 10;
  Result<ResultSet> r =
      scheduler.SubmitWithRetry(session, "SELECT COUNT(*) FROM T", policy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).int_val(), 150);
  ASSERT_TRUE(slow.take().get().ok());
  scheduler.Drain();
  const std::string text = db.MetricsText();
  EXPECT_NE(text.find("msql_retries_total"), std::string::npos);
}

TEST(RetryTest, NonRetryableFailureSurfacesImmediately) {
  Engine db;
  QueryScheduler scheduler;
  SessionPtr session = db.CreateSession();
  RetryPolicy policy;
  policy.max_attempts = 5;
  Result<ResultSet> r =
      scheduler.SubmitWithRetry(session, "SELECT * FROM NoSuchTable", policy);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCatalog);
}

// ---------------------------------------------------------------------------
// Observability of admission
// ---------------------------------------------------------------------------

TEST(ObsTest, RateLimitShedIsCountedAndLabelled) {
  Engine db;
  LoadInts(&db, 10, 10);
  SchedulerOptions opts;
  opts.global_rate_limit_qps = 1.0;  // next token ~1s away
  opts.global_rate_limit_burst = 1;
  opts.max_admission_wait_ms = 5;    // far less than the token interval
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();

  auto first = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.take().get().ok());
  auto second = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("rate limited"),
            std::string::npos)
      << second.status().ToString();
  const std::string text = db.MetricsText();
  EXPECT_NE(text.find("msql_rate_limited_total"), std::string::npos);
  EXPECT_NE(text.find("msql_admission_wait_seconds"), std::string::npos);
}

TEST(ObsTest, AdmissionWaitAppearsAsTraceSpan) {
  EngineOptions eopts;
  eopts.enable_tracing = true;
  eopts.admission_rate_limit_qps = 100.0;  // 10ms per token
  eopts.admission_rate_limit_burst = 1;
  Engine db(eopts);
  LoadInts(&db, 10, 10);
  QueryScheduler scheduler;
  SessionPtr session = db.CreateSession();  // snapshots the rate limit

  // First submission takes the burst token; the second waits ~10ms in
  // admission, which the trace must record as an admission-wait span.
  for (int i = 0; i < 2; ++i) {
    auto f = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE(f.take().get().ok());
  }
  bool saw_admission_wait = false;
  for (const auto& trace : db.RecentTraces()) {
    for (const auto& child : trace->root().children) {
      if (child->name == "admission-wait" && child->duration_us > 0) {
        saw_admission_wait = true;
      }
    }
  }
  EXPECT_TRUE(saw_admission_wait)
      << "no trace recorded an admission-wait span";
}

TEST(ObsTest, ExplainAnalyzeRendersDeadlineOutcome) {
  Engine db;
  LoadInts(&db, 2000, 2000);
  db.options().timeout_ms = 20;
  auto r = db.Query(std::string("EXPLAIN ANALYZE ") + kSlowQuery);
  // The statement renders: the plan tree plus the execution outcome.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    text += r.value().Get(i, 0).str();
    text += "\n";
  }
  EXPECT_NE(text.find("Outcome: deadline_exceeded"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace msql
