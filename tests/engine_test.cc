// Tests for the Engine facade: DDL life cycle, EXPLAIN, DESCRIBE, CSV
// import/export, execution statistics, and result formatting.

#include <cstdio>
#include <fstream>

#include "catalog/csv.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "tests/paper_fixture.h"
#include "tests/testing_matchers.h"

namespace msql {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  Engine db_;
};

TEST_F(EngineTest, CreateInsertDropLifecycle) {
  MustExecute(&db_, "CREATE TABLE t (a INTEGER)");
  MustExecute(&db_, "INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(MustQuery(&db_, "SELECT COUNT(*) AS n FROM t").Get(0, "n").int_val(),
            2);
  // Duplicate create fails; IF NOT EXISTS succeeds.
  EXPECT_FALSE(db_.Execute("CREATE TABLE t (a INTEGER)").ok());
  MustExecute(&db_, "CREATE TABLE IF NOT EXISTS t (a INTEGER)");
  MustExecute(&db_, "DROP TABLE t");
  EXPECT_FALSE(db_.Query("SELECT * FROM t").ok());
  MustExecute(&db_, "DROP TABLE IF EXISTS t");
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
}

TEST_F(EngineTest, CreateViewValidatesEagerly) {
  auto st = db_.Execute("CREATE VIEW v AS SELECT nope FROM missing");
  EXPECT_FALSE(st.ok());
  // Replacement only with OR REPLACE.
  MustExecute(&db_, "CREATE TABLE t (a INTEGER)");
  MustExecute(&db_, "CREATE VIEW v AS SELECT a FROM t");
  EXPECT_FALSE(db_.Execute("CREATE VIEW v AS SELECT a FROM t").ok());
  MustExecute(&db_, "CREATE OR REPLACE VIEW v AS SELECT a + 1 AS b FROM t");
  // Dropping a view as a table is an error.
  EXPECT_FALSE(db_.Execute("DROP TABLE v").ok());
  MustExecute(&db_, "DROP VIEW v");
}

TEST_F(EngineTest, ExplainShowsPlanAndMeasures) {
  LoadPaperData(&db_);
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  auto plan = db_.Explain(
      "SELECT prodName, AGGREGATE(r) FROM V GROUP BY prodName");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("Aggregate"), std::string::npos);
  EXPECT_NE(plan.value().find("Scan Orders"), std::string::npos);
  EXPECT_NE(plan.value().find("measures=[r]"), std::string::npos);

  // EXPLAIN as a statement returns the plan as rows.
  ResultSet rs = MustQuery(&db_,
      "EXPLAIN SELECT prodName FROM Orders WHERE revenue > 3");
  EXPECT_GT(rs.num_rows(), 1u);
}

TEST_F(EngineTest, DescribeTableAndView) {
  LoadPaperData(&db_);
  ResultSet t = MustQuery(&db_, "DESCRIBE Orders");
  EXPECT_EQ(t.num_rows(), 5u);
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT prodName, SUM(revenue) AS MEASURE r "
              "FROM Orders");
  ResultSet v = MustQuery(&db_, "DESCRIBE V");
  ASSERT_EQ(v.num_rows(), 2u);
  EXPECT_EQ(v.Get(1, "type").str(), "INTEGER MEASURE");
}

TEST_F(EngineTest, ResultSetFormatting) {
  LoadPaperData(&db_);
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, SUM(revenue) AS total FROM Orders
    GROUP BY prodName ORDER BY prodName
  )sql");
  std::string table = rs.ToString();
  EXPECT_NE(table.find("prodName"), std::string::npos);
  EXPECT_NE(table.find("====="), std::string::npos);
  EXPECT_NE(table.find("Happy"), std::string::npos);
  std::string csv = rs.ToCsv();
  EXPECT_NE(csv.find("prodName,total"), std::string::npos);
  EXPECT_NE(csv.find("Happy,17"), std::string::npos);
}

TEST_F(EngineTest, LastStatsInstrumentation) {
  LoadPaperData(&db_);
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  ResultSet agg =
      MustQuery(&db_, "SELECT prodName, AGGREGATE(r) FROM V GROUP BY prodName");
  ASSERT_NE(agg.stats(), nullptr);
  EXPECT_GT(agg.stats()->measure_evals, 0u);
  // AGGREGATE call sites take the inline fast path: no source scans.
  EXPECT_EQ(agg.stats()->measure_source_scans, 0u);
  EXPECT_GT(agg.stats()->measure_inline_evals, 0u);
  // Contexts that are not row-id-only do scan the source.
  ResultSet all =
      MustQuery(&db_, "SELECT prodName, r AT (ALL) FROM V GROUP BY prodName");
  ASSERT_NE(all.stats(), nullptr);
  EXPECT_GT(all.stats()->measure_source_scans, 0u);
}

TEST_F(EngineTest, SubqueryMemoization) {
  LoadPaperData(&db_);
  const char* q = R"sql(
    SELECT prodName,
           (SELECT SUM(revenue) FROM Orders AS i
            WHERE i.prodName = o.prodName) AS r
    FROM Orders AS o
  )sql";
  ResultSet memoized = MustQuery(&db_, q);
  ASSERT_NE(memoized.stats(), nullptr);
  EXPECT_GT(memoized.stats()->subquery_cache_hits, 0u);
  // kNaive is the literal evaluation: every correlated row runs afresh.
  db_.options().measure_strategy = MeasureStrategy::kNaive;
  ResultSet plain = MustQuery(&db_, q);
  ASSERT_NE(plain.stats(), nullptr);
  EXPECT_EQ(plain.stats()->subquery_cache_hits, 0u);
  EXPECT_TRUE(testing::ResultsAgree(memoized, plain));
}

TEST_F(EngineTest, CsvRoundTrip) {
  const std::string path = "/tmp/msql_test_orders.csv";
  {
    std::ofstream out(path);
    out << "prodName,qty,price,shipDate\n";
    out << "widget,3,2.5,2024-01-01\n";
    out << "\"gadget, deluxe\",1,10,2024-02-01\n";
    out << "widget,,3.25,\n";  // NULL qty and date
  }
  ASSERT_TRUE(db_.ImportCsv("inventory", path).ok());
  ResultSet d = MustQuery(&db_, "DESCRIBE inventory");
  ASSERT_EQ(d.num_rows(), 4u);
  EXPECT_EQ(d.Get(1, "type").str(), "INTEGER");
  EXPECT_EQ(d.Get(2, "type").str(), "DOUBLE");
  EXPECT_EQ(d.Get(3, "type").str(), "DATE");

  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, SUM(price) AS total FROM inventory
    GROUP BY prodName ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.Get(0, "prodName").str(), "gadget, deluxe");
  EXPECT_NEAR(rs.Get(1, "total").double_val(), 5.75, 1e-9);

  // Append through LoadCsv into the existing table.
  ASSERT_TRUE(db_.LoadCsv("inventory", path).ok());
  EXPECT_EQ(MustQuery(&db_, "SELECT COUNT(*) AS n FROM inventory")
                .Get(0, "n")
                .int_val(),
            6);
  std::remove(path.c_str());
}

TEST_F(EngineTest, CsvErrors) {
  EXPECT_FALSE(db_.ImportCsv("t", "/nonexistent/file.csv").ok());
  const std::string path = "/tmp/msql_bad.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1\n";  // wrong arity
  }
  EXPECT_FALSE(db_.ImportCsv("bad", path).ok());
  std::remove(path.c_str());
}

TEST_F(EngineTest, CopyStatement) {
  LoadPaperData(&db_);
  const std::string path = "/tmp/msql_copy_test.csv";
  MustExecute(&db_, "COPY Orders TO '" + path + "'");
  MustExecute(&db_, "CREATE TABLE Orders2 (prodName VARCHAR, "
                    "custName VARCHAR, orderDate DATE, revenue INTEGER, "
                    "cost INTEGER)");
  MustExecute(&db_, "COPY Orders2 FROM '" + path + "'");
  EXPECT_EQ(MustQuery(&db_, "SELECT COUNT(*) AS n FROM Orders2")
                .Get(0, "n")
                .int_val(),
            5);
  // Views export through materialization.
  MustExecute(&db_, "CREATE VIEW TotalsByProduct AS "
                    "SELECT prodName, SUM(revenue) AS r FROM Orders "
                    "GROUP BY prodName");
  MustExecute(&db_, "COPY TotalsByProduct TO '" + path + "'");
  MustExecute(&db_, "CREATE TABLE Totals (prodName VARCHAR, r INTEGER)");
  MustExecute(&db_, "COPY Totals FROM '" + path + "'");
  EXPECT_EQ(MustQuery(&db_, "SELECT COUNT(*) AS n FROM Totals")
                .Get(0, "n")
                .int_val(),
            3);
  EXPECT_FALSE(db_.Execute("COPY missing TO '" + path + "'").ok());
  std::remove(path.c_str());
}

TEST_F(EngineTest, MultiStatementExecute) {
  MustExecute(&db_, R"sql(
    CREATE TABLE a (x INTEGER);
    INSERT INTO a VALUES (1);
    CREATE VIEW b AS SELECT x * 2 AS y FROM a;
  )sql");
  EXPECT_EQ(MustQuery(&db_, "SELECT y FROM b").Get(0, "y").int_val(), 2);
}

TEST_F(EngineTest, MeasureColumnsRenderAtRowGrain) {
  LoadPaperData(&db_);
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  // Selecting the measure column directly evaluates it per row (every
  // dimension pinned), so identical rows aggregate together.
  ResultSet rs = MustQuery(&db_, "SELECT prodName, revenue, r FROM V "
                                 "ORDER BY prodName, revenue");
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    EXPECT_EQ(rs.Get(i, "r").int_val(), rs.Get(i, "revenue").int_val());
  }
}

TEST_F(EngineTest, RecursionGuard) {
  // A deeply nested query hits the depth guard instead of overflowing.
  std::string q = "SELECT 1 AS x";
  for (int i = 0; i < 80; ++i) q = "SELECT x FROM (" + q + ") AS t" ;
  auto r = db_.Query(q);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("recursion limit"), std::string::npos);
}

}  // namespace
}  // namespace msql
