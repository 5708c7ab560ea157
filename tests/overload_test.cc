// Overload resilience (docs/ROBUSTNESS.md, docs/CONCURRENCY.md): token-
// bucket rate limiting, the retryability contract, bounded-wait admission
// with deadline propagation, cancellation reaching queued-but-unstarted
// work, and the observability surface of all of it (metrics, trace spans,
// EXPLAIN ANALYZE outcome lines).

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "runtime/rate_limiter.h"
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
// Retryability: the contract clients retry on
// ---------------------------------------------------------------------------

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
  // 50^3 rows in the slow join: under 2 s even in an unoptimized coverage
  // build, well inside the 10 s admission wait below.
  LoadInts(&db, 50, 50);
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_pending = 1;  // the slow query saturates the scheduler
  opts.admission.max_admission_wait_ms = 10 * 1000;
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
  EXPECT_EQ(fast_result.value().Get(0, 0).int_val(), 50);
  ASSERT_TRUE(slow.take().get().ok());
  scheduler.Drain();
}

TEST(AdmissionTest, ShedsWithResourceExhaustedWhenWaitExpires) {
  Engine db;
  LoadInts(&db, 10, 10);
  SchedulerOptions opts;
  opts.max_pending = 0;  // no slot will ever free up
  opts.admission.max_admission_wait_ms = 30;
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
  opts.admission.max_admission_wait_ms = 10 * 1000;  // 10s without cancel
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
// Observability of admission
// ---------------------------------------------------------------------------

TEST(ObsTest, RateLimitShedIsCountedAndLabelled) {
  Engine db;
  LoadInts(&db, 10, 10);
  SchedulerOptions opts;
  opts.admission.per_user_rate_limit_qps = 1.0;  // next token ~1s away
  opts.admission.per_user_rate_limit_burst = 1;
  opts.admission.max_admission_wait_ms = 5;  // far less than the interval
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();
  session->SetUser("alice");
  // A second session of the same user draws on the same bucket.
  SessionPtr same_user = db.CreateSession();
  same_user->SetUser("alice");

  auto first = scheduler.Submit(session, "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.take().get().ok());
  auto second = scheduler.Submit(same_user, "SELECT COUNT(*) FROM T");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("rate limited"),
            std::string::npos)
      << second.status().ToString();
  const std::string text = db.MetricsText();
  EXPECT_NE(text.find("msql_rate_limited_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("msql_admission_wait_seconds"), std::string::npos);

  // Another user has a bucket of its own.
  SessionPtr other = db.CreateSession();
  other->SetUser("bob");
  auto third = scheduler.Submit(other, "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_TRUE(third.take().get().ok());
}

TEST(ObsTest, AdmissionWaitAppearsAsTraceSpan) {
  EngineOptions eopts;
  eopts.enable_tracing = true;
  Engine db(eopts);
  LoadInts(&db, 10, 10);
  SchedulerOptions opts;
  opts.admission.per_user_rate_limit_qps = 100.0;  // 10ms per token
  opts.admission.per_user_rate_limit_burst = 1;
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();

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
