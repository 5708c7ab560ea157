// Multi-threaded stress tests: N sessions running the paper-listing
// workload concurrently must produce exactly the serial results; CancelAll
// under load unwinds cleanly; concurrent INSERTs never let a reader observe
// a stale or torn measure value (snapshot isolation + generation-based
// cache invalidation); sessions racing to fill one shared measure value
// table agree with the naive strategy.

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"

namespace msql {
namespace {

constexpr int kSessions = 8;

void SeedPaperSchema(Engine* db) {
  ASSERT_TRUE(db->Execute(R"sql(
    CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR,
                         orderDate DATE, revenue INTEGER);
    INSERT INTO Orders VALUES
      ('Happy', 'Alice', DATE '2023-11-28', 6),
      ('Acme', 'Bob', DATE '2023-11-27', 5),
      ('Happy', 'Alice', DATE '2024-11-28', 4),
      ('Whizz', 'Celia', DATE '2023-11-25', 3),
      ('Acme', 'Alice', DATE '2024-11-27', 7),
      ('Happy', 'Bob', DATE '2024-11-26', 2),
      ('Whizz', 'Celia', DATE '2024-11-25', 8),
      ('Acme', 'Alice', DATE '2023-11-24', 9);
    CREATE TABLE Customers (custName VARCHAR, custAge INTEGER);
    INSERT INTO Customers VALUES ('Alice', 30), ('Bob', 40), ('Celia', 17);
    CREATE VIEW EO AS
      SELECT *, SUM(revenue) AS MEASURE r, COUNT(*) AS MEASURE n,
             YEAR(orderDate) AS orderYear
      FROM Orders
  )sql")
                  .ok());
}

// Paper-listing shapes: plain AGGREGATE, ratio-to-total via AT (ALL),
// per-dimension pinning via AT (SET), joins and a correlated subquery.
const char* kWorkload[] = {
    "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName "
    "ORDER BY prodName",
    "SELECT prodName, AGGREGATE(r) / (r AT (ALL)) AS frac FROM EO "
    "GROUP BY prodName ORDER BY prodName",
    "SELECT custName, AGGREGATE(r), AGGREGATE(n) FROM EO "
    "GROUP BY custName ORDER BY custName",
    "SELECT orderYear, AGGREGATE(r), "
    "AGGREGATE(r AT (SET orderYear = orderYear - 1)) AS prev "
    "FROM EO GROUP BY orderYear ORDER BY orderYear",
    "SELECT c.custName, AGGREGATE(r) FROM EO o JOIN Customers c "
    "ON o.custName = c.custName GROUP BY c.custName ORDER BY c.custName",
    "SELECT prodName FROM Orders WHERE revenue > "
    "(SELECT AVG(revenue) FROM Orders) ORDER BY prodName",
    "SELECT prodName, AGGREGATE(r) FROM EO WHERE orderYear = 2024 "
    "GROUP BY prodName ORDER BY prodName",
};
constexpr int kWorkloadSize = sizeof(kWorkload) / sizeof(kWorkload[0]);

TEST(ConcurrencyStressTest, EightSessionsMatchSerialResults) {
  Engine db;
  SeedPaperSchema(&db);

  // Serial reference, on a naive-strategy engine so the concurrent run
  // shares nothing with it.
  std::vector<std::string> expected;
  {
    Engine ref;
    ref.options().measure_strategy = MeasureStrategy::kNaive;
    SeedPaperSchema(&ref);
    for (const char* sql : kWorkload) {
      auto r = ref.Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(r.value().ToCsv());
    }
  }

  const uint64_t queries_before = db.stats().queries;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&db, &expected, &mismatches, &failures, t] {
      SessionPtr session = db.CreateSession();
      for (int round = 0; round < 20; ++round) {
        // Stagger starting offsets so threads hit different queries at the
        // same time (more cache contention interleavings).
        const int qi = (t + round) % kWorkloadSize;
        auto r = session->Query(kWorkload[qi]);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        if (r.value().ToCsv() != expected[qi]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats stats = db.stats();
  EXPECT_EQ(stats.queries - queries_before,
            static_cast<uint64_t>(kSessions) * 20);
  // The repeat workload must actually exercise the cross-query cache.
  EXPECT_GT(stats.shared_cache_hits, 0u);
}

TEST(ConcurrencyStressTest, SessionsFillOneSharedValueTableConcurrently) {
  // Every query below has the same measures and context shape (custName,
  // orderYear), so all sessions share one value table per measure through
  // the cross-query cache and fill its slots on first lookup; `n`'s
  // formula references the input measure `r` (paper section 5.4). Each
  // query asks for a different, overlapping slice of the groups, so fills
  // of the same slot race. Every answer must equal the naive strategy's.
  auto seed = [](Engine* db) {
    std::string sql =
        "CREATE TABLE Big (custName VARCHAR, orderYear INTEGER, "
        "revenue INTEGER); INSERT INTO Big VALUES ";
    for (int i = 0; i < 3000; ++i) {
      if (i > 0) sql += ", ";
      sql += "('c" + std::to_string(i % 300) + "', " +
             std::to_string(2000 + i % 7) + ", " + std::to_string(i % 13) +
             ")";
    }
    sql += "; CREATE VIEW BV AS SELECT *, SUM(revenue) AS MEASURE r FROM Big"
           "; CREATE VIEW BV2 AS SELECT *, r - COUNT(*) AS MEASURE n FROM BV";
    ASSERT_TRUE(db->Execute(sql).ok());
  };
  auto query = [](int slice) {
    return "SELECT custName, orderYear, r, n FROM BV2 WHERE orderYear = " +
           std::to_string(2000 + slice % 7) +
           " GROUP BY custName, orderYear ORDER BY custName";
  };

  Engine db;
  seed(&db);
  std::vector<std::string> expected;
  {
    Engine ref;
    ref.options().measure_strategy = MeasureStrategy::kNaive;
    seed(&ref);
    for (int slice = 0; slice < 7; ++slice) {
      auto r = ref.Query(query(slice));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(r.value().ToCsv());
    }
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      SessionPtr session = db.CreateSession();
      for (int round = 0; round < 14; ++round) {
        const int slice = (t + round) % 7;
        auto r = session->Query(query(slice));
        if (!r.ok()) {
          ++failures;
          continue;
        }
        if (r.value().ToCsv() != expected[slice]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats stats = db.stats();
  EXPECT_GT(stats.shared_cache_hits, 0u);
  EXPECT_GT(stats.measure_grouped_probes, 0u);
  EXPECT_EQ(stats.measure_source_scans, 0u);
}

TEST(ConcurrencyStressTest, SchedulerRunsMixedSessionLoad) {
  Engine db;
  SeedPaperSchema(&db);
  SchedulerOptions opts;
  opts.num_threads = 4;
  QueryScheduler scheduler(opts);

  std::vector<SessionPtr> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(db.CreateSession());

  std::vector<QueryScheduler::QueryFuture> futures;
  int rejected = 0;
  for (int round = 0; round < 10; ++round) {
    for (int s = 0; s < kSessions; ++s) {
      auto f = scheduler.Submit(sessions[s],
                                kWorkload[(s + round) % kWorkloadSize]);
      if (f.ok()) {
        futures.push_back(f.take());
      } else {
        // Admission control may shed load; that is the contract.
        ASSERT_EQ(f.status().code(), ErrorCode::kResourceExhausted);
        ++rejected;
      }
    }
  }
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_GT(static_cast<int>(futures.size()), rejected);
}

TEST(ConcurrencyStressTest, CancelAllUnderLoadUnwindsCleanly) {
  Engine db;
  SeedPaperSchema(&db);
  // Widen the data so queries run long enough to be caught in flight.
  {
    std::vector<Row> bulk;
    for (int i = 0; i < 20000; ++i) {
      bulk.push_back({Value::String("P" + std::to_string(i % 50)),
                      Value::String("C" + std::to_string(i % 200)),
                      Value::Date(19000 + i % 900), Value::Int(i % 97)});
    }
    ASSERT_TRUE(db.InsertRows("Orders", std::move(bulk)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> cancelled{0};
  std::atomic<int> completed{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&db, &stop, &cancelled, &completed, &unexpected] {
      SessionPtr session = db.CreateSession();
      // Defeat all caching so every iteration does real work that a cancel
      // can interrupt.
      session->options().measure_strategy = MeasureStrategy::kNaive;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = session->Query(
            "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
        if (r.ok()) {
          ++completed;
        } else if (r.status().code() == ErrorCode::kCancelled) {
          ++cancelled;
        } else {
          ++unexpected;
        }
      }
    });
  }

  // Let the workers get in flight, then cancel everything a few times.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    db.CancelAll();
  }
  stop = true;
  for (auto& th : threads) th.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(cancelled.load(), 0);
  // The engine is fully usable afterwards.
  auto r = db.Query("SELECT COUNT(*) FROM Orders");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows()[0][0].int_val(), 20008);
}

TEST(ConcurrencyStressTest, ConcurrentInsertsNeverYieldStaleOrTornSums) {
  // Writer appends rows with revenue=1 in batches of `kBatch`; readers sum
  // revenue through a measure. Every observed sum must be a valid prefix
  // state (base + k*kBatch) and each reader's view must be monotonic —
  // a stale cache hit after an insert would go backwards, a torn scan
  // would land between batch states. With the plan cache on, readers send
  // one text that hits the pre-parse probe, and a write landing between
  // that probe and the run must not fail the read as a stale plan
  // (kCatalog): only prepared handles a client holds are refused so.
  for (const bool plan_cache : {false, true}) {
    SCOPED_TRACE(plan_cache ? "plan cache on" : "plan cache off");
    EngineOptions options;
    options.enable_plan_cache = plan_cache;
    Engine db(options);
    ASSERT_TRUE(db.Execute(R"sql(
      CREATE TABLE Ticks (v INTEGER);
      INSERT INTO Ticks VALUES (1), (1), (1), (1);
      CREATE VIEW ET AS SELECT *, SUM(v) AS MEASURE total FROM Ticks
    )sql")
                    .ok());
    constexpr int kBatch = 5;
    constexpr int kBatches = 60;
    constexpr int64_t kBase = 4;

    constexpr int64_t kFinal = kBase + int64_t{kBatch} * kBatches;
    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::atomic<int> stale_plan_errors{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&db, &done, &violations, &stale_plan_errors] {
        SessionPtr session = db.CreateSession();
        auto read_sum = [&session, &violations,
                         &stale_plan_errors]() -> int64_t {
          auto r = session->Query("SELECT AGGREGATE(total) FROM ET");
          if (!r.ok()) {
            if (r.status().code() == ErrorCode::kCatalog) ++stale_plan_errors;
            ++violations;
            return -1;
          }
          return r.value().rows()[0][0].int_val();
        };
        while (!done.load(std::memory_order_relaxed)) {
          const int64_t sum = read_sum();
          if (sum < 0) return;
          const bool prefix_state =
              sum >= kBase && (sum - kBase) % kBatch == 0 && sum <= kFinal;
          if (!prefix_state) ++violations;
        }
        // Staleness check: with all inserts published, a fresh read must
        // see the final state — a stale cache entry surviving invalidation
        // would surface here deterministically.
        if (read_sum() != kFinal) ++violations;
      });
    }

    SessionPtr writer = db.CreateSession();
    for (int b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(
          writer->Execute("INSERT INTO Ticks VALUES (1), (1), (1), (1), (1)")
              .ok());
    }
    done = true;
    for (auto& th : readers) th.join();
    EXPECT_EQ(stale_plan_errors.load(), 0);
    EXPECT_EQ(violations.load(), 0);

    // Final state matches an uncached engine evaluating from scratch.
    auto final_sum = db.Query("SELECT AGGREGATE(total) FROM ET");
    ASSERT_TRUE(final_sum.ok());
    EXPECT_EQ(final_sum.value().rows()[0][0].int_val(),
              kBase + int64_t{kBatch} * kBatches);
  }
}

TEST(ConcurrencyStressTest, ConcurrentDdlAndQueries) {
  // DDL (view churn) racing read queries: readers bind against immutable
  // catalog snapshots, so they either see the old or the new definition,
  // never an error other than clean not-found.
  Engine db;
  SeedPaperSchema(&db);
  std::atomic<bool> done{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &done, &unexpected] {
      SessionPtr session = db.CreateSession();
      while (!done.load(std::memory_order_relaxed)) {
        auto r = session->Query(
            "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
        if (!r.ok()) ++unexpected;
        auto r2 = session->Query("SELECT AGGREGATE(x2) FROM Scratch");
        // Scratch flips in and out of existence; both outcomes are fine,
        // but any error must be the clean catalog one.
        if (!r2.ok() && r2.status().code() != ErrorCode::kCatalog) {
          ++unexpected;
        }
      }
    });
  }

  SessionPtr ddl = db.CreateSession();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ddl->Execute("CREATE OR REPLACE VIEW Scratch AS "
                             "SELECT *, SUM(revenue * 2) AS MEASURE x2 "
                             "FROM Orders")
                    .ok());
    ASSERT_TRUE(ddl->Execute("DROP VIEW Scratch").ok());
  }
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(unexpected.load(), 0);
}

}  // namespace
}  // namespace msql
