// Plan-cache correctness (docs/NETWORKING.md): a cache hit must be
// indistinguishable from a cold execution under every measure strategy,
// entries must invalidate when the catalog generation moves, parameter
// binding against a prepared plan must fail with a typed error on type
// mismatch, and the naive strategy's literal plan never shares an entry with
// the rewritten plan the other strategies run.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "runtime/session.h"
#include "testing/compare.h"

namespace msql {
namespace {

constexpr char kSetup[] = R"(
CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, revenue INTEGER);
INSERT INTO Orders VALUES
  ('Happy', 'Alice', 6), ('Acme', 'Bob', 5), ('Happy', 'Alice', 7),
  ('Whizz', 'Celia', 3), ('Happy', 'Bob', 4);
CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders;
)";

const char* kQueries[] = {
    "SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName "
    "ORDER BY prodName",
    "SELECT prodName, AGGREGATE(r) / (r AT (ALL)) AS frac FROM EO "
    "GROUP BY prodName ORDER BY prodName",
    "SELECT custName, r AT (ALL) AS total FROM EO GROUP BY custName "
    "ORDER BY custName",
};

EngineOptions MakeOptions(MeasureStrategy strategy, bool enable_cache) {
  EngineOptions options;
  options.measure_strategy = strategy;
  options.enable_plan_cache = enable_cache;
  return options;
}

TEST(PlanCacheTest, HitAfterPrepareMatchesColdExecutionUnderAllStrategies) {
  for (MeasureStrategy strategy :
       {MeasureStrategy::kNaive, MeasureStrategy::kGrouped}) {
    Engine cold(MakeOptions(strategy, /*enable_cache=*/false));
    Engine warm(MakeOptions(strategy, /*enable_cache=*/true));
    ASSERT_TRUE(cold.Execute(kSetup).ok());
    ASSERT_TRUE(warm.Execute(kSetup).ok());
    for (const char* sql : kQueries) {
      auto baseline = cold.Query(sql);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      ASSERT_NE(baseline.value().stats(), nullptr);
      EXPECT_EQ(baseline.value().stats()->plan_cache,
                QueryStats::PlanCacheOutcome::kOff);

      // First execution fills the cache, the repeat must hit it.
      auto fill = warm.Query(sql);
      ASSERT_TRUE(fill.ok()) << fill.status().ToString();
      ASSERT_NE(fill.value().stats(), nullptr);
      EXPECT_EQ(fill.value().stats()->plan_cache,
                QueryStats::PlanCacheOutcome::kMiss);
      auto hit = warm.Query(sql);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      ASSERT_NE(hit.value().stats(), nullptr);
      EXPECT_EQ(hit.value().stats()->plan_cache,
                QueryStats::PlanCacheOutcome::kHit);

      auto diff = testing::DiffResults(baseline.value(), hit.value(),
                                       testing::CompareOptions{});
      EXPECT_FALSE(diff.has_value())
          << "strategy " << static_cast<int>(strategy) << ", query '" << sql
          << "': cached result diverged from cold execution: " << *diff;
    }
  }
}

TEST(PlanCacheTest, PreparedExecutionMatchesColdExecution) {
  Engine cold(MakeOptions(MeasureStrategy::kGrouped, false));
  Engine warm(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(cold.Execute(kSetup).ok());
  ASSERT_TRUE(warm.Execute(kSetup).ok());
  const std::string sql =
      "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > ? "
      "GROUP BY prodName ORDER BY prodName";

  auto prepared = warm.PrepareSelect(sql, {TypeKind::kInt64});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value()->param_count, 1);

  for (int64_t threshold : {0, 4, 6}) {
    auto baseline = cold.Query(
        "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > " +
        std::to_string(threshold) + " GROUP BY prodName ORDER BY prodName");
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    auto executed =
        warm.QueryPlanned(prepared.value(), {Value::Int(threshold)});
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    ASSERT_NE(executed.value().stats(), nullptr);
    EXPECT_EQ(executed.value().stats()->plan_cache,
              QueryStats::PlanCacheOutcome::kHit);
    auto diff = testing::DiffResults(baseline.value(), executed.value(),
                                     testing::CompareOptions{});
    EXPECT_FALSE(diff.has_value())
        << "threshold " << threshold << ": " << *diff;
  }
}

TEST(PlanCacheTest, CatalogGenerationBumpInvalidates) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  const char* sql = kQueries[0];

  ASSERT_TRUE(db.Query(sql).ok());
  auto hit = db.Query(sql);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);

  // Any catalog mutation moves the generation; the cached plan must not
  // survive it (it may reference dropped objects or stale data).
  ASSERT_TRUE(db.Execute("INSERT INTO Orders VALUES ('Acme', 'Dana', 9)")
                  .ok());
  // The write purges every older plan at once, before any probe.
  EXPECT_EQ(db.plan_cache().stats().entries, 0u);
  EXPECT_EQ(db.plan_cache().stats().bytes, 0u);
  auto after = db.Query(sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kMiss)
      << "stale plan served after catalog generation bump";
  // The re-prepared plan sees the new row: Acme is now 5 + 9.
  EXPECT_EQ(after.value().Get(0, "v").int_val(), 14);
  EXPECT_GE(db.plan_cache().stats().invalidations, 1u);

  // Prepared handles observe the same discipline: a stale handle is
  // refused with kCatalog so the caller re-prepares.
  auto prepared = db.PrepareSelect(kQueries[0], {});
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(db.Execute("INSERT INTO Orders VALUES ('Whizz', 'Eve', 1)")
                  .ok());
  auto stale = db.QueryPlanned(prepared.value(), {});
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kCatalog);
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos)
      << stale.status().ToString();
}

TEST(PlanCacheTest, ParameterTypeMismatchIsTypedError) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  auto prepared = db.PrepareSelect(
      "SELECT prodName FROM Orders WHERE revenue > ? ORDER BY prodName",
      {TypeKind::kInt64});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Unconvertible value: a non-numeric string cannot bind an INT64 slot.
  auto mismatch =
      db.QueryPlanned(prepared.value(), {Value::String("not a number")});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("parameter $1 type mismatch"),
            std::string::npos)
      << mismatch.status().ToString();

  // Wrong arity is refused before execution.
  auto arity = db.QueryPlanned(prepared.value(), {});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), ErrorCode::kInvalidArgument);

  // Losslessly convertible values coerce instead of failing.
  auto coerced = db.QueryPlanned(prepared.value(), {Value::String("4")});
  ASSERT_TRUE(coerced.ok()) << coerced.status().ToString();
  EXPECT_EQ(coerced.value().num_rows(), 3u);  // 6, 7, 5 > 4
}

TEST(PlanCacheTest, DeclaredArityMustMatchStatement) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  auto wrong = db.PrepareSelect(
      "SELECT prodName FROM Orders WHERE revenue > ?", {});
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), ErrorCode::kBind);
}

TEST(PlanCacheTest, LruBoundsAndMetrics) {
  // The entry cap and the byte budget each evict: 16 distinct statements
  // through a 4-entry cache, then through a budget of about 4 plans.
  EngineOptions by_entries;
  by_entries.plan_cache_max_entries = 4;
  EngineOptions by_bytes;
  by_bytes.plan_cache_max_bytes = 4 * 4096;
  for (EngineOptions options : {by_entries, by_bytes}) {
    options.enable_plan_cache = true;
    Engine db(options);
    ASSERT_TRUE(db.Execute(kSetup).ok());

    for (int i = 0; i < 16; ++i) {
      auto r = db.Query("SELECT prodName FROM Orders WHERE revenue > " +
                        std::to_string(i) + " ORDER BY prodName");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    const PlanCache::Stats stats = db.plan_cache().stats();
    EXPECT_LE(stats.entries, 4u);
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, options.plan_cache_max_bytes);
    EXPECT_GT(stats.entries, 0u);

    const std::string metrics = db.MetricsText();
    for (const char* name :
         {"msql_plan_cache_hits_total", "msql_plan_cache_misses_total",
          "msql_plan_cache_evictions_total", "msql_plan_cache_entries",
          "msql_plan_cache_bytes"}) {
      EXPECT_NE(metrics.find(name), std::string::npos)
          << "metric " << name << " missing from exposition";
    }
  }
}

TEST(PlanCacheTest, ExplainAnalyzeReportsOutcome) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  const std::string analyze =
      std::string("EXPLAIN ANALYZE ") + kQueries[0];

  auto cold = db.Query(analyze);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold.value().ToString().find("PlanCache: miss"),
            std::string::npos);

  // EXPLAIN ANALYZE probes the cache by canonical text, so the plain query
  // above it warms the entry it hits.
  ASSERT_TRUE(db.Query(kQueries[0]).ok());
  auto warm = db.Query(analyze);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_NE(warm.value().ToString().find("PlanCache: hit"),
            std::string::npos);

  Engine off(MakeOptions(MeasureStrategy::kGrouped, false));
  ASSERT_TRUE(off.Execute(kSetup).ok());
  auto disabled = off.Query(analyze);
  ASSERT_TRUE(disabled.ok()) << disabled.status().ToString();
  EXPECT_NE(disabled.value().ToString().find("PlanCache: off"),
            std::string::npos);
}

TEST(PlanCacheTest, LiteralAndRewrittenPlansAreCachedApart) {
  // One engine, two sessions: the naive one runs the literal plan, the
  // grouped one the plan with its WHERE pushed below the join. Neither may
  // run the other's cached plan, on the raw-text, canonical or Prepare key.
  Engine db(MakeOptions(MeasureStrategy::kGrouped, /*enable_cache=*/true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE Customers (custName VARCHAR, "
                         "custAge INTEGER); INSERT INTO Customers VALUES "
                         "('Alice', 23), ('Bob', 41), ('Celia', 17)")
                  .ok());
  SessionPtr naive = db.CreateSession();
  naive->options().measure_strategy = MeasureStrategy::kNaive;
  SessionPtr grouped = db.CreateSession();
  const std::string sql =
      "SELECT o.prodName, AGGREGATE(o.r) AS v, o.r AT (ALL) AS total "
      "FROM EO AS o JOIN Customers AS c USING (custName) "
      "WHERE o.prodName <> 'Whizz' AND c.custAge > 20 "
      "GROUP BY o.prodName ORDER BY o.prodName";

  auto outcome = [](const Result<ResultSet>& r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value().stats() != nullptr
               ? r.value().stats()->plan_cache
               : QueryStats::PlanCacheOutcome::kOff;
  };
  using Outcome = QueryStats::PlanCacheOutcome;
  EXPECT_EQ(outcome(grouped->Query(sql)), Outcome::kMiss);
  EXPECT_EQ(outcome(grouped->Query(sql)), Outcome::kHit);
  auto literal = naive->Query(sql);
  EXPECT_EQ(outcome(literal), Outcome::kMiss);
  EXPECT_EQ(outcome(naive->Query(sql)), Outcome::kHit);
  auto rewritten = grouped->Query(sql);
  EXPECT_EQ(outcome(rewritten), Outcome::kHit);
  ASSERT_TRUE(literal.ok() && rewritten.ok());
  EXPECT_EQ(literal.value().ToCsv(), rewritten.value().ToCsv());

  // EXPLAIN ANALYZE hits each session's own entry and shows its own plan.
  auto naive_plan = naive->Query("EXPLAIN ANALYZE " + sql);
  auto grouped_plan = grouped->Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(naive_plan.ok() && grouped_plan.ok());
  const std::string np = naive_plan.value().ToString();
  const std::string gp = grouped_plan.value().ToString();
  EXPECT_NE(np.find("PlanCache: hit"), std::string::npos);
  EXPECT_NE(gp.find("PlanCache: hit"), std::string::npos);
  EXPECT_LT(np.find("Filter"), np.find("Join"));  // literal: above
  EXPECT_GT(gp.find("Filter"), gp.find("Join"));  // rewritten: below
  EXPECT_NE(np, gp);

  // Prepare keys carry the plan form too.
  auto naive_prep = naive->Prepare(sql, {});
  auto grouped_prep = grouped->Prepare(sql, {});
  ASSERT_TRUE(naive_prep.ok() && grouped_prep.ok());
  EXPECT_NE(naive_prep.value()->plan, grouped_prep.value()->plan);
  auto a = naive->QueryPrepared(naive_prep.value(), {});
  auto b = grouped->QueryPrepared(grouped_prep.value(), {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().ToCsv(), literal.value().ToCsv());
  EXPECT_EQ(b.value().ToCsv(), literal.value().ToCsv());
}

// A statement that runs a SELECT inside it (COPY of a view, INSERT ...
// SELECT, EXPLAIN) must never be answered from a plan cached under its own
// text: only a top-level SELECT publishes its plan under the raw text. Each
// statement runs twice through Engine::Query and once through a Session.
class RawTextAliasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(kSetup).ok());
    ASSERT_TRUE(db_.Execute("CREATE VIEW V AS SELECT prodName, revenue "
                            "FROM Orders WHERE revenue > 5")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE T (x INTEGER); INSERT INTO T VALUES (1), (2)")
            .ok());
    session_ = db_.CreateSession();
  }

  // The three runs of `sql`: two engine-level calls, then a session call.
  std::vector<Result<ResultSet>> RunThrice(const std::string& sql) {
    std::vector<Result<ResultSet>> runs;
    runs.push_back(db_.Query(sql));
    runs.push_back(db_.Query(sql));
    runs.push_back(session_->Query(sql));
    return runs;
  }

  Engine db_{MakeOptions(MeasureStrategy::kGrouped, /*enable_cache=*/true)};
  SessionPtr session_;
};

TEST_F(RawTextAliasTest, CopyOfAViewWritesTheFileEveryTime) {
  const std::string path = ::testing::TempDir() + "/msql_plan_cache_copy.csv";
  const std::string sql = "COPY V TO '" + path + "'";
  for (int run = 0; run < 3; ++run) {
    std::remove(path.c_str());
    Result<ResultSet> r = run < 2 ? db_.Query(sql) : session_->Query(sql);
    ASSERT_TRUE(r.ok()) << "run " << run << ": " << r.status().ToString();
    EXPECT_EQ(r.value().num_rows(), 0u) << "run " << run;
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << "run " << run << " wrote no file";
    std::stringstream contents;
    contents << file.rdbuf();
    EXPECT_EQ(contents.str(), "prodName,revenue\nHappy,6\nHappy,7\n")
        << "run " << run;
  }
  std::remove(path.c_str());
}

TEST_F(RawTextAliasTest, FailingInsertSelectFailsEveryTime) {
  int run = 0;
  for (const Result<ResultSet>& r :
       RunThrice("INSERT INTO T SELECT x, x FROM T")) {
    ASSERT_FALSE(r.ok()) << "run " << run << " returned "
                         << r.value().num_rows() << " row(s)";
    EXPECT_EQ(r.status().code(), ErrorCode::kExecution)
        << "run " << run << ": " << r.status().ToString();
    ++run;
  }
  auto count = db_.Query("SELECT COUNT(*) AS n FROM T");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().Get(0, "n").int_val(), 2);
}

TEST_F(RawTextAliasTest, ExplainReturnsPlanTextEveryTime) {
  int run = 0;
  for (const Result<ResultSet>& r :
       RunThrice("EXPLAIN SELECT prodName FROM Orders WHERE revenue > 4")) {
    ASSERT_TRUE(r.ok()) << "run " << run << ": " << r.status().ToString();
    EXPECT_EQ(r.value().column_names(), std::vector<std::string>{"plan"});
    EXPECT_NE(r.value().ToString().find("Scan Orders"), std::string::npos)
        << "run " << run << ":\n" << r.value().ToString();
    ++run;
  }
}

// INSERT ... VALUES binds its rows once into a Values plan and runs it
// without the plan cache: a 300-row insert neither probes nor fills the
// cache, so it cannot evict a served SELECT's plan.
TEST(PlanCacheTest, InsertValuesMakesNoPlanCacheTraffic) {
  Engine db(MakeOptions(MeasureStrategy::kGrouped, /*enable_cache=*/true));
  ASSERT_TRUE(db.Execute(kSetup).ok());
  const std::string select =
      "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName "
      "ORDER BY prodName";
  auto outcome = [&] {
    auto r = db.Query(select);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value().stats() != nullptr
               ? r.value().stats()->plan_cache
               : QueryStats::PlanCacheOutcome::kOff;
  };
  // `rows` distinct VALUES rows; with `bad_last`, the last one has a
  // fourth value.
  auto insert = [](int rows, bool bad_last) {
    std::string sql = "INSERT INTO Orders VALUES ";
    for (int i = 0; i < rows; ++i) {
      sql += (i > 0 ? ", ('P" : "('P") + std::to_string(i) + "', 'C" +
             std::to_string(i % 7) + "', " + std::to_string(i) +
             (bad_last && i == rows - 1 ? ", 1)" : ")");
    }
    return sql;
  };
  EXPECT_EQ(outcome(), QueryStats::PlanCacheOutcome::kMiss);
  EXPECT_EQ(outcome(), QueryStats::PlanCacheOutcome::kHit);

  PlanCache::Stats before = db.plan_cache().stats();
  ASSERT_TRUE(db.Execute(insert(300, false)).ok());
  PlanCache::Stats after = db.plan_cache().stats();
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
  auto count = db.Query("SELECT COUNT(*) FROM Orders");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().Get(0, 0).int_val(), 305);

  // The rows changed, so the SELECT binds once more and is served again.
  EXPECT_EQ(outcome(), QueryStats::PlanCacheOutcome::kMiss);
  EXPECT_EQ(outcome(), QueryStats::PlanCacheOutcome::kHit);
  // A 300-row insert that fails leaves the data, and so the warmed plan, as
  // they were: the SELECT still hits.
  before = db.plan_cache().stats();
  EXPECT_FALSE(db.Execute(insert(300, true)).ok());
  after = db.plan_cache().stats();
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(outcome(), QueryStats::PlanCacheOutcome::kHit);
}

}  // namespace
}  // namespace msql
