// EXPLAIN / EXPLAIN ANALYZE rendering over the paper's fixtures: plain
// EXPLAIN annotates measure expansion per plan node; ANALYZE runs the query
// and adds per-operator actual rows / wall time / cache activity, including
// which expansion strategy fired (docs/OBSERVABILITY.md).

#include <string>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "tests/paper_fixture.h"
#include "tests/testing_matchers.h"

namespace msql {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadPaperData(&db_); }

  // Runs EXPLAIN [ANALYZE] through the statement path and splices the
  // one-column result back into the rendered text.
  std::string Render(const std::string& stmt) {
    auto r = db_.Query(stmt);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n  in: " << stmt;
    if (!r.ok()) return "";
    EXPECT_EQ(r.value().column_names(), std::vector<std::string>{"plan"});
    std::string text;
    for (size_t i = 0; i < r.value().num_rows(); ++i) {
      text += r.value().Get(i, 0).str();
      text += "\n";
    }
    return text;
  }

  // The line of `text` containing `needle` ("" when absent).
  static std::string LineWith(const std::string& text,
                              const std::string& needle) {
    size_t pos = text.find(needle);
    if (pos == std::string::npos) return "";
    size_t begin = text.rfind('\n', pos);
    begin = begin == std::string::npos ? 0 : begin + 1;
    size_t end = text.find('\n', pos);
    return text.substr(begin, end - begin);
  }

  Engine db_;
};

// Paper Listing 4: profitMargin measure over EnhancedOrders, grouped by
// product. 5 source rows aggregate into 3 product groups.
const char* kListing4 = R"sql(
  SELECT prodName, AGGREGATE(profitMargin) AS profitMargin, COUNT(*) AS c
  FROM (SELECT orderDate, prodName,
               (SUM(revenue) - SUM(cost)) / SUM(revenue)
               AS MEASURE profitMargin
        FROM Orders) AS EnhancedOrders
  GROUP BY prodName
  ORDER BY prodName
)sql";

// Paper Listing 8: VISIBLE totals under ROLLUP with a WHERE filter.
const char* kListing8 = R"sql(
  SELECT o.prodName,
         COUNT(*) AS c,
         AGGREGATE(o.sumRevenue) AS rAgg,
         o.sumRevenue AT (VISIBLE) AS rViz,
         o.sumRevenue AS r
  FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue
        FROM Orders) AS o
  WHERE o.custName <> 'Bob'
  GROUP BY ROLLUP(o.prodName)
)sql";

TEST_F(ExplainAnalyzeTest, PlainExplainAnnotatesExpansionWithoutRunning) {
  std::string text = Render(std::string("EXPLAIN ") + kListing4);
  // The defining node shows the measure formula it expands to.
  EXPECT_NE(text.find("expands=[profitMargin :="), std::string::npos);
  // The evaluating Aggregate shows the configured strategy (grouped is the
  // default).
  EXPECT_NE(text.find("measure_eval=grouped"), std::string::npos);
  // Plain EXPLAIN never executes: no actuals, no summary.
  EXPECT_EQ(text.find("actual time="), std::string::npos);
  EXPECT_EQ(text.find("Execution:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AnalyzeListing4ReportsPerOperatorActuals) {
  std::string text = Render(std::string("EXPLAIN ANALYZE ") + kListing4);

  // Every operator line carries actuals.
  EXPECT_NE(text.find("actual time="), std::string::npos);

  // The base scan saw the 5 Orders rows.
  std::string scan = LineWith(text, "Scan Orders");
  ASSERT_FALSE(scan.empty());
  EXPECT_NE(scan.find("rows=5"), std::string::npos) << scan;
  EXPECT_NE(scan.find("loops=1"), std::string::npos) << scan;

  // The Aggregate produced the 3 product groups and evaluated the measure
  // per group via the inline fast path (no source scans).
  std::string agg = LineWith(text, "Aggregate");
  ASSERT_FALSE(agg.empty());
  EXPECT_NE(agg.find("rows=3"), std::string::npos) << agg;
  EXPECT_NE(agg.find("[measures:"), std::string::npos) << agg;
  EXPECT_NE(agg.find("evals=3"), std::string::npos) << agg;
  EXPECT_NE(agg.find("fired=inline"), std::string::npos) << agg;
  EXPECT_NE(agg.find("measure_eval=grouped"), std::string::npos) << agg;

  // The summary block reflects the whole query.
  EXPECT_NE(text.find("Execution: total="), std::string::npos);
  EXPECT_NE(text.find("rows_charged="), std::string::npos);
  EXPECT_NE(text.find("Measures: evals=3"), std::string::npos);
  EXPECT_NE(text.find("strategy=grouped"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AnalyzeGroupedStrategyReportsBuildsAndProbes) {
  // A bare measure under GROUP BY produces one all-dimension context per
  // group; the grouped strategy partitions the source in one pass and
  // answers each group with a lookup in the measure's value table. ANALYZE
  // attributes the build and the per-group probes to the Aggregate
  // operator.
  std::string text = Render(
      "EXPLAIN ANALYZE SELECT prodName, sumRevenue AS r "
      "FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o "
      "GROUP BY prodName ORDER BY prodName");
  std::string agg = LineWith(text, "[measures:");
  ASSERT_FALSE(agg.empty());
  EXPECT_NE(agg.find("grouped_builds=1"), std::string::npos) << agg;
  EXPECT_NE(agg.find("grouped_probes=3"), std::string::npos) << agg;
  EXPECT_NE(agg.find("fired=grouped"), std::string::npos) << agg;
  EXPECT_NE(agg.find("scans=0"), std::string::npos) << agg;
  EXPECT_NE(text.find("strategy=grouped"), std::string::npos);
  // The top Project reads the Sort's rows, which have no columnar image:
  // the row path by design, not a missing kernel, so no fallback counts.
  std::string top = LineWith(text, "Project [prodName, sumRevenue]");
  ASSERT_FALSE(top.empty()) << text;
  EXPECT_EQ(top.find("fallbacks=1"), std::string::npos) << top;
  EXPECT_NE(text.find("row_fallbacks=0"), std::string::npos) << text;
}

TEST_F(ExplainAnalyzeTest, InListFilterOverMeasureViewRunsVectorized) {
  // `prodName IN (...)` has a batch kernel, so the filter, which runs as
  // the pre-filter of the measure view's Project, never falls back to
  // rows.
  MustExecute(&db_,
              "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE sumRevenue "
              "FROM Orders");
  std::string text = Render(
      "EXPLAIN ANALYZE SELECT prodName, AGGREGATE(sumRevenue) AS r FROM EO "
      "WHERE prodName IN ('Happy', 'Whizz') GROUP BY prodName");
  std::string filter = LineWith(text, "WHERE (prodName IN (");
  ASSERT_FALSE(filter.empty()) << text;
  EXPECT_NE(filter.find("Project"), std::string::npos) << filter;
  EXPECT_NE(filter.find("rows=4"), std::string::npos) << filter;
  EXPECT_NE(filter.find("exec=vectorized"), std::string::npos) << filter;
  EXPECT_NE(filter.find("fallbacks=0"), std::string::npos) << filter;
}

TEST_F(ExplainAnalyzeTest, GroupingByADoubleKeyCountsOneRowFallback) {
  // String and integer keys group by their codes. A DOUBLE key cannot
  // (0.0 and -0.0 are one key with different bits), so grouping hashes its
  // Values and the Aggregate reports one row fallback.
  MustExecute(&db_, R"sql(
    CREATE TABLE t (a VARCHAR, d DOUBLE, i INTEGER);
    INSERT INTO t VALUES ('x', 1.5, 1), ('y', -0.0, 2), ('x', 0.0, 1);
  )sql");
  std::string coded = LineWith(
      Render("EXPLAIN ANALYZE SELECT a, i, COUNT(*) AS c FROM t "
             "GROUP BY a, i"),
      "Aggregate");
  EXPECT_NE(coded.find("exec=vectorized"), std::string::npos) << coded;
  EXPECT_NE(coded.find("fallbacks=0"), std::string::npos) << coded;
  // Sorting the result adds no fallback: the Project above the Sort runs
  // the row path by design.
  for (const char* order : {"", " ORDER BY d"}) {
    const std::string text =
        Render(std::string("EXPLAIN ANALYZE SELECT d, COUNT(*) AS c FROM t "
                           "GROUP BY d") +
               order);
    std::string doubled = LineWith(text, "Aggregate");
    EXPECT_NE(doubled.find("rows=2"), std::string::npos) << doubled;
    EXPECT_NE(doubled.find("exec=mixed"), std::string::npos) << doubled;
    EXPECT_NE(doubled.find("fallbacks=1"), std::string::npos) << doubled;
    EXPECT_NE(text.find("row_fallbacks=1"), std::string::npos) << text;
  }
}

TEST_F(ExplainAnalyzeTest, WarmBareMeasuresHitOneTablePerMeasureColumn) {
  // Each bare measure column of a GROUP BY is answered from one value
  // table: cold, one partition of the source (shared by every column);
  // warm, one shared-cache hit per column — not one per group. That holds
  // for a formula over an input measure (paper section 5.4) too.
  MustExecute(&db_, R"sql(
    CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE sumRevenue,
                             COUNT(*) AS MEASURE orderCount FROM Orders;
    CREATE VIEW L1 AS SELECT *, SUM(revenue) AS MEASURE rev FROM Orders;
    CREATE VIEW L2 AS SELECT *, rev - SUM(cost) AS MEASURE profit FROM L1;
  )sql");
  struct Input {
    std::string query;
    int groups;
    int columns;
    int cold_misses;  // tables, plus the inner measure's per-context entries
  };
  const Input inputs[] = {
      {"SELECT custName, sumRevenue AS r, orderCount AS c FROM EO "
       "GROUP BY custName",
       6, 2, 2},
      {"SELECT prodName, profit FROM L2 GROUP BY prodName", 3, 1, 4},
  };
  for (const Input& in : inputs) {
    for (ExecMode mode : {ExecMode::kVectorized, ExecMode::kRow}) {
      SCOPED_TRACE(in.query);
      db_.shared_cache().Clear();
      db_.options().exec_mode = mode;
      db_.options().measure_strategy = MeasureStrategy::kGrouped;
      const std::string probes = "grouped_probes=" + std::to_string(in.groups);
      std::string cold =
          LineWith(Render("EXPLAIN ANALYZE " + in.query), "[measures:");
      ASSERT_FALSE(cold.empty());
      EXPECT_NE(cold.find("grouped_builds=1"), std::string::npos) << cold;
      EXPECT_NE(cold.find(probes), std::string::npos) << cold;
      EXPECT_NE(cold.find("shared_misses=" + std::to_string(in.cold_misses)),
                std::string::npos)
          << cold;

      std::string warm =
          LineWith(Render("EXPLAIN ANALYZE " + in.query), "[measures:");
      ASSERT_FALSE(warm.empty());
      EXPECT_NE(warm.find("evals=" + std::to_string(in.groups)),
                std::string::npos)
          << warm;
      EXPECT_NE(warm.find("grouped_builds=0"), std::string::npos) << warm;
      EXPECT_NE(warm.find(probes), std::string::npos) << warm;
      EXPECT_NE(warm.find("shared_hits=" + std::to_string(in.columns)),
                std::string::npos)
          << warm;
      EXPECT_NE(warm.find("shared_misses=0"), std::string::npos) << warm;
      EXPECT_NE(warm.find("scans=0"), std::string::npos) << warm;

      ResultSet grouped = MustQuery(&db_, in.query);
      db_.options().measure_strategy = MeasureStrategy::kNaive;
      EXPECT_TRUE(testing::ResultsAgree(grouped, MustQuery(&db_, in.query)));
    }
  }
}

TEST_F(ExplainAnalyzeTest, AnalyzeListing8CountsRollupGroupsAndScans) {
  std::string text = Render(std::string("EXPLAIN ANALYZE ") + kListing8);

  // 5 source rows scanned; the WHERE filter, the pre-filter of the view's
  // Project, keeps 3 (Bob's 2 drop out).
  std::string scan = LineWith(text, "Scan Orders");
  ASSERT_FALSE(scan.empty());
  EXPECT_NE(scan.find("rows=5"), std::string::npos) << scan;
  std::string filter = LineWith(text, "WHERE (custName <> 'Bob')");
  ASSERT_FALSE(filter.empty());
  EXPECT_NE(filter.find("rows=3"), std::string::npos) << filter;

  // ROLLUP(prodName) over {Happy, Whizz}: 2 leaf groups + grand total.
  std::string agg = LineWith(text, "Aggregate");
  ASSERT_FALSE(agg.empty());
  EXPECT_NE(agg.find("rows=3"), std::string::npos) << agg;
  EXPECT_NE(agg.find("sets=2"), std::string::npos) << agg;

  // The bare measure (`o.sumRevenue AS r`) ignores the WHERE filter, so it
  // re-scans the measure source; ANALYZE attributes the scans.
  EXPECT_NE(text.find("scans="), std::string::npos);
  std::string measures = LineWith(text, "[measures:");
  ASSERT_FALSE(measures.empty());

  // Results were actually produced (ANALYZE executes the query).
  EXPECT_NE(text.find("Execution: total="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AnalyzeWithNaiveStrategyReportsScans) {
  db_.options().measure_strategy = MeasureStrategy::kNaive;
  std::string text = Render(std::string("EXPLAIN ANALYZE ") + kListing4);
  EXPECT_NE(text.find("measure_eval=naive"), std::string::npos);
  // Without the inline fast path every evaluation scans the source.
  std::string agg = LineWith(text, "[measures:");
  ASSERT_FALSE(agg.empty());
  EXPECT_NE(agg.find("fired=scan"), std::string::npos) << agg;
  EXPECT_NE(text.find("strategy=naive"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AnalyzeResultMatchesDirectExecution) {
  // ANALYZE must not perturb results: the listing still returns its table.
  ResultSet direct = MustQuery(&db_, kListing4);
  ASSERT_EQ(direct.num_rows(), 3u);
  std::string text = Render(std::string("EXPLAIN ANALYZE ") + kListing4);
  EXPECT_NE(text.find("Execution:"), std::string::npos);
  ResultSet again = MustQuery(&db_, kListing4);
  ASSERT_EQ(again.num_rows(), 3u);
  for (size_t i = 0; i < direct.num_rows(); ++i) {
    for (size_t c = 0; c < direct.num_columns(); ++c) {
      EXPECT_TRUE(Value::NotDistinct(direct.Get(i, c), again.Get(i, c)));
    }
  }
}

TEST_F(ExplainAnalyzeTest, ExplainOverSystemTablesFollowsTheFlag) {
  // EXPLAIN binds as the SELECT would: msql_system tables resolve exactly
  // when the session enabled them.
  const std::string sql = "EXPLAIN SELECT name FROM msql_system.metrics";
  db_.options().enable_system_tables = true;
  EXPECT_NE(Render(sql).find("Scan msql_system.metrics"), std::string::npos);
  auto viaApi = db_.Explain(sql);
  ASSERT_TRUE(viaApi.ok()) << viaApi.status().ToString();
  EXPECT_NE(viaApi.value().find("Scan msql_system.metrics"), std::string::npos);

  db_.options().enable_system_tables = false;
  for (const Result<ResultSet>& r : {db_.Query(sql), db_.Query(
                                         "EXPLAIN ANALYZE SELECT name FROM "
                                         "msql_system.metrics")}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kCatalog) << r.status().ToString();
  }
  auto disabled = db_.Explain(sql);
  ASSERT_FALSE(disabled.ok());
  EXPECT_EQ(disabled.status().code(), ErrorCode::kCatalog);
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeParsesAndRoundTrips) {
  auto stmt = Parser::Parse("EXPLAIN ANALYZE SELECT 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt.value()->explain_analyze);
  EXPECT_EQ(stmt.value()->ToString().rfind("EXPLAIN ANALYZE ", 0), 0u);
  auto plain = Parser::Parse("EXPLAIN SELECT 1");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value()->explain_analyze);
}

}  // namespace
}  // namespace msql
