// Resource governor coverage: wall-clock timeout, memory / result-row
// budgets, cooperative cancellation (per-query token and engine-wide
// CancelAll), and the invariant that a guarded abort leaves the engine in
// a clean, reusable state.

#include <atomic>
#include <chrono>
#include <thread>

#include "common/query_guard.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "tests/paper_fixture.h"

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

TEST(GuardTest, TimeoutTripsOnCrossJoin) {
  Engine db;
  db.options().timeout_ms = 20;
  LoadInts(&db, 2000, 2000);
  // 2000 x 2000 x 2000 = 8e9 combined rows: never finishes in 20ms; the
  // deadline poll must unwind it with kDeadlineExceeded.
  auto r = db.Query(
      "SELECT COUNT(*) FROM T a, T b, T c WHERE a.v + b.v + c.v < 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos)
      << r.status().ToString();
}

TEST(GuardTest, RowBudgetTripsOnLargeGroupBy) {
  Engine db;
  LoadInts(&db, 1000, 1000);  // every row its own group
  db.options().max_result_rows = 1500;
  // Scan charges 1000 rows; the per-group emission pushes the cumulative
  // count over 1500 deterministically.
  auto r = db.Query("SELECT k, SUM(v) FROM T GROUP BY k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_result_rows"), std::string::npos)
      << r.status().ToString();
}

TEST(GuardTest, MemoryBudgetTrips) {
  Engine db;
  LoadInts(&db, 10000, 100);
  db.options().max_memory_bytes = 64 * 1024;  // far below the scan estimate
  auto r = db.Query("SELECT k, SUM(v) FROM T GROUP BY k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_memory_bytes"), std::string::npos)
      << r.status().ToString();
}

TEST(GuardTest, BudgetErrorIsDeterministic) {
  // Same query, same budget -> byte-identical error, run after run.
  std::string first;
  for (int i = 0; i < 3; ++i) {
    Engine db;
    LoadInts(&db, 500, 500);
    db.options().max_result_rows = 600;
    auto r = db.Query("SELECT k FROM T ORDER BY k");
    ASSERT_FALSE(r.ok());
    if (i == 0) {
      first = r.status().ToString();
    } else {
      EXPECT_EQ(r.status().ToString(), first);
    }
  }
}

TEST(GuardTest, CancelTokenFromSecondThread) {
  Engine db;
  LoadInts(&db, 2000, 2000);
  CancelTokenPtr token = Engine::NewCancelToken();
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token->Cancel();
  });
  auto r = db.Query(
      "SELECT COUNT(*) FROM T a, T b, T c WHERE a.v + b.v + c.v < 0", token);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled);
  EXPECT_NE(r.status().message().find("cancel"), std::string::npos)
      << r.status().ToString();
}

TEST(GuardTest, CancelAllFromSecondThread) {
  Engine db;
  LoadInts(&db, 2000, 2000);
  std::thread canceller([&db] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    db.CancelAll();
  });
  auto r = db.Query(
      "SELECT COUNT(*) FROM T a, T b, T c WHERE a.v + b.v + c.v < 0");
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled);
  // CancelAll only affects statements running at the time of the call.
  auto again = db.Query("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().Get(0, 0).int_val(), 2000);
}

// The scheduler passes the CancelAll generation at admission, so a
// CancelAll that lands before the guard is armed (during parse or bind)
// still cancels the admitted statement.
TEST(GuardTest, CancelAllAfterAdmissionCancelsBeforeArm) {
  Engine db;
  LoadInts(&db, 2000, 2000);
  QueryContext ctx;
  ctx.options = db.options();
  ctx.cancel_generation = 0;  // admitted before the CancelAll below
  db.CancelAll();
  auto r = db.QueryWith("SELECT COUNT(*) FROM T", ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled);
}

TEST(GuardTest, PreCancelledTokenTripsImmediately) {
  Engine db;
  LoadPaperData(&db);
  CancelTokenPtr token = Engine::NewCancelToken();
  token->Cancel();
  auto r = db.Query("SELECT COUNT(*) FROM Orders", token);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCancelled);
}

TEST(GuardTest, EngineUsableAfterGuardedAbort) {
  Engine db;
  LoadPaperData(&db);
  MustExecute(&db,
              "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r "
              "FROM Orders");
  db.options().max_result_rows = 3;
  db.options().enable_tracing = true;  // failed queries report via the trace
  auto r = db.Query("SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  // Counters must be consistent: the abort unwound every Execute frame.
  auto traces = db.RecentTraces();
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces[0]->stats().depth, 0);
  db.options().enable_tracing = false;
  // Lifting the budget, the same engine answers the same query correctly.
  db.options().max_result_rows = 0;
  ResultSet rs = MustQuery(
      &db, "SELECT prodName, AGGREGATE(r) AS v FROM EO "
           "GROUP BY prodName ORDER BY prodName");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.Get(0, "v").int_val(), 5);
  EXPECT_EQ(rs.Get(1, "v").int_val(), 17);
  EXPECT_EQ(rs.Get(2, "v").int_val(), 3);
}

TEST(GuardTest, GenerousLimitsDoNotChangeResults) {
  Engine plain, guarded;
  guarded.options().timeout_ms = 60 * 1000;
  guarded.options().max_memory_bytes = uint64_t{8} << 30;
  guarded.options().max_result_rows = 100 * 1000 * 1000;
  for (Engine* db : {&plain, &guarded}) {
    LoadPaperData(db);
    MustExecute(db,
                "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r "
                "FROM Orders");
  }
  const char* queries[] = {
      "SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName "
      "ORDER BY prodName",
      "SELECT custName, r AT (ALL) AS total FROM EO GROUP BY custName "
      "ORDER BY custName",
      "SELECT COUNT(DISTINCT prodName) FROM Orders",
  };
  for (const char* q : queries) {
    ResultSet a = MustQuery(&plain, q);
    ResultSet b = MustQuery(&guarded, q);
    ASSERT_EQ(a.num_rows(), b.num_rows()) << q;
    for (size_t i = 0; i < a.num_rows(); ++i) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        EXPECT_TRUE(Value::NotDistinct(a.Get(i, c), b.Get(i, c))) << q;
      }
    }
  }
}

TEST(GuardTest, ChargeAccountingIsVisible) {
  Engine db;
  LoadInts(&db, 100, 10);
  auto r = db.Query("SELECT k, SUM(v) FROM T GROUP BY k");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().stats(), nullptr);
  // The scan alone accounts for >= 100 rows; grouping adds 10 more.
  EXPECT_GE(r.value().stats()->rows_charged, 110u);
  EXPECT_GT(r.value().stats()->bytes_charged, 0u);
}

}  // namespace
}  // namespace msql
