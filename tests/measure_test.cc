// Tests for measure definition, the closure property (tables with measures
// in and out of queries), grain preservation under joins, and diagnostics.

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "tests/paper_fixture.h"

namespace msql {
namespace {

class MeasureTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadPaperData(&db_); }
  Engine db_;
};

TEST_F(MeasureTest, DefiningViewKeepsRowCount) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  ResultSet rs = MustQuery(&db_, "SELECT prodName FROM V");
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(MeasureTest, MeasureColumnTypeIsMeasureWrapped) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  ResultSet d = MustQuery(&db_, "DESCRIBE V");
  bool found = false;
  for (const Row& row : d.rows()) {
    if (row[0].str() == "r") {
      EXPECT_EQ(row[1].str(), "INTEGER MEASURE");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MeasureTest, MeasuresOfDifferentValueTypes) {
  MustExecute(&db_, R"sql(
    CREATE VIEW V AS SELECT *,
      SUM(revenue) AS MEASURE total,
      AVG(revenue) AS MEASURE mean,
      COUNT(*) AS MEASURE n,
      MAX(orderDate) AS MEASURE latest
    FROM Orders
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(total) AS t, AGGREGATE(mean) AS m,
           AGGREGATE(n) AS c, AGGREGATE(latest) AS l
    FROM V GROUP BY prodName ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.Get(1, "t").int_val(), 17);
  EXPECT_NEAR(rs.Get(1, "m").double_val(), 17.0 / 3, 1e-9);
  EXPECT_EQ(rs.Get(1, "c").int_val(), 3);
  EXPECT_EQ(rs.Get(1, "l").ToString(), "2024-11-28");
}

TEST_F(MeasureTest, GrandTotalWithoutGroupBy) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  // AGGREGATE makes this an aggregate query with a single all-rows group.
  ResultSet rs = MustQuery(&db_, "SELECT AGGREGATE(r) AS total FROM V");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.Get(0, "total").int_val(), 25);
}

TEST_F(MeasureTest, SelectStarPropagatesMeasure) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(r) AS total
    FROM (SELECT * FROM V) AS inner_v
    GROUP BY prodName ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.Get(1, "total").int_val(), 17);
}

TEST_F(MeasureTest, ProjectionRenamesDimensionWithProvenance) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  // Rename prodName; the renamed column still works as a dimension.
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT p, AGGREGATE(r) AS total
    FROM (SELECT prodName AS p, r FROM V) AS renamed
    GROUP BY p ORDER BY p
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.Get(0, "total").int_val(), 5);   // Acme
  EXPECT_EQ(rs.Get(1, "total").int_val(), 17);  // Happy
}

TEST_F(MeasureTest, DerivedDimensionHasProvenance) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT y, AGGREGATE(r) AS total
    FROM (SELECT YEAR(orderDate) AS y, r FROM V) AS derived
    GROUP BY y ORDER BY y
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.Get(0, "total").int_val(), 4);   // 2022
  EXPECT_EQ(rs.Get(1, "total").int_val(), 14);  // 2023
  EXPECT_EQ(rs.Get(2, "total").int_val(), 7);   // 2024
}

TEST_F(MeasureTest, GroupingByNonDimensionGivesWholeTable) {
  // Grouping by a key with no provenance to the measure's source leaves the
  // context unconstrained (paper section 3.6 semantics for join keys).
  MustExecute(&db_, R"sql(
    CREATE VIEW C AS SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT o.prodName, c.avgAge AS a
    FROM Orders AS o JOIN C AS c USING (custName)
    GROUP BY o.prodName ORDER BY o.prodName
  )sql");
  for (const Row& row : rs.rows()) {
    EXPECT_NEAR(row[1].double_val(), 27.0, 1e-9);  // (23+41+17)/3
  }
}

TEST_F(MeasureTest, JoinFanOutDoesNotDoubleCount) {
  // Two orders join to Alice; VISIBLE counts Alice once.
  MustExecute(&db_, R"sql(
    CREATE VIEW C AS SELECT *, SUM(custAge) AS MEASURE totalAge,
                            COUNT(*) AS MEASURE custCount
    FROM Customers
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT COUNT(*) AS joined_rows,
           AGGREGATE(c.custCount) AS customers,
           AGGREGATE(c.totalAge) AS age_sum,
           SUM(c.custAge) AS weighted_age_sum
    FROM Orders AS o JOIN C AS c USING (custName)
  )sql");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.Get(0, "joined_rows").int_val(), 5);
  EXPECT_EQ(rs.Get(0, "customers").int_val(), 3);     // grain preserved
  EXPECT_EQ(rs.Get(0, "age_sum").int_val(), 81);      // 23+41+17
  // Fan-out weighted: one term per joined row
  // (Alice 23, Bob 41, Alice 23, Celia 17, Bob 41).
  EXPECT_EQ(rs.Get(0, "weighted_age_sum").int_val(), 145);
}

TEST_F(MeasureTest, MeasuresFromBothJoinSides) {
  MustExecute(&db_, R"sql(
    CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE rev FROM Orders;
    CREATE VIEW EC AS SELECT *, COUNT(*) AS MEASURE nCust FROM Customers;
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT o.prodName, AGGREGATE(o.rev) AS rev, AGGREGATE(c.nCust) AS ncust
    FROM EO AS o JOIN EC AS c USING (custName)
    GROUP BY o.prodName ORDER BY o.prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  // Happy: revenue 17 from orders; distinct customers Alice + Bob = 2.
  EXPECT_EQ(rs.Get(1, "rev").int_val(), 17);
  EXPECT_EQ(rs.Get(1, "ncust").int_val(), 2);
}

TEST_F(MeasureTest, MeasureSurvivesOrderByAndLimit) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(r) AS total
    FROM (SELECT * FROM V ORDER BY revenue DESC LIMIT 3) AS top3
    GROUP BY prodName ORDER BY prodName
  )sql");
  // Top 3 by revenue: Happy 7, Happy 6, Acme 5. AGGREGATE is VISIBLE-scoped:
  // Happy = 13, Acme = 5.
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.Get(0, "total").int_val(), 5);
  EXPECT_EQ(rs.Get(1, "total").int_val(), 13);
}

TEST_F(MeasureTest, CountStarMeasure) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, COUNT(*) AS MEASURE n FROM Orders");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(n) AS n, n AT (ALL) AS total
    FROM V GROUP BY prodName ORDER BY prodName
  )sql");
  EXPECT_EQ(rs.Get(0, "n").int_val(), 1);
  EXPECT_EQ(rs.Get(1, "n").int_val(), 3);
  EXPECT_EQ(rs.Get(0, "total").int_val(), 5);
}

TEST_F(MeasureTest, GroupedValueTableAbsentKeysAndPerGroupErrors) {
  // The grouped strategy answers a bare measure from its shape's key->value
  // table. A pinned value no source row has takes the formula over zero
  // rows (COUNT 0, SUM NULL), and a group whose formula fails (Whizz:
  // SUM(cost - 1) = 0) fails only the queries that ask for that group.
  MustExecute(&db_, R"sql(
    CREATE VIEW V AS SELECT *, COUNT(*) AS MEASURE n,
      SUM(revenue) AS MEASURE r,
      SUM(revenue) / SUM(cost - 1) AS MEASURE q
    FROM Orders
  )sql");
  for (MeasureStrategy s : {MeasureStrategy::kGrouped,
                            MeasureStrategy::kNaive}) {
    db_.options().measure_strategy = s;
    ResultSet rs = MustQuery(&db_, R"sql(
      SELECT prodName, n AT (SET prodName = 'Nope') AS n0,
             r AT (SET prodName = 'Nope') AS r0
      FROM V GROUP BY prodName ORDER BY prodName
    )sql");
    ASSERT_EQ(rs.num_rows(), 3u);
    ASSERT_FALSE(rs.Get(0, "n0").is_null());
    EXPECT_EQ(rs.Get(0, "n0").int_val(), 0);
    EXPECT_TRUE(rs.Get(0, "r0").is_null());

    ResultSet ok = MustQuery(&db_, R"sql(
      SELECT prodName, q FROM V WHERE prodName <> 'Whizz'
      GROUP BY prodName ORDER BY prodName
    )sql");
    ASSERT_EQ(ok.num_rows(), 2u);
    EXPECT_NEAR(ok.Get(0, "q").double_val(), 5.0, 1e-9);   // Acme 5 / 1
    EXPECT_NEAR(ok.Get(1, "q").double_val(), 17.0 / 6, 1e-9);

    auto bad = db_.Query("SELECT prodName, q FROM V GROUP BY prodName");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("division by zero"),
              std::string::npos);
  }
}

TEST_F(MeasureTest, GroupedValueTableKeepsEveryFormulaErrorPerGroup) {
  // A malformed CAST fails with kInvalidArgument, not kExecution. It too
  // belongs to the one group whose rows hold the bad string: a query whose
  // WHERE excludes that group succeeds, and one that asks for it fails.
  MustExecute(&db_, R"sql(
    CREATE VIEW D AS SELECT prodName,
      CASE WHEN prodName = 'Whizz' THEN 'not a date' ELSE '2024-01-05' END
        AS s
    FROM Orders
  )sql");
  MustExecute(&db_, R"sql(
    CREATE VIEW V AS SELECT *, MAX(CAST(s AS DATE)) AS MEASURE md FROM D
  )sql");
  for (MeasureStrategy s : {MeasureStrategy::kGrouped,
                            MeasureStrategy::kNaive}) {
    db_.options().measure_strategy = s;
    ResultSet ok = MustQuery(&db_, R"sql(
      SELECT prodName, md FROM V WHERE prodName <> 'Whizz'
      GROUP BY prodName ORDER BY prodName
    )sql");
    ASSERT_EQ(ok.num_rows(), 2u);
    EXPECT_FALSE(ok.Get(0, "md").is_null());
    EXPECT_FALSE(ok.Get(1, "md").is_null());

    auto bad = db_.Query("SELECT prodName, md FROM V GROUP BY prodName");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(MeasureTest, MeasureWithCaseFormula) {
  MustExecute(&db_, R"sql(
    CREATE VIEW V AS SELECT *,
      CASE WHEN SUM(revenue) = 0 THEN NULL
           ELSE SUM(cost) * 1.0 / SUM(revenue) END AS MEASURE costRatio
    FROM Orders
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(costRatio) AS cr FROM V GROUP BY prodName
    ORDER BY prodName
  )sql");
  EXPECT_NEAR(rs.Get(0, "cr").double_val(), 2.0 / 5, 1e-9);
  EXPECT_NEAR(rs.Get(1, "cr").double_val(), 9.0 / 17, 1e-9);
}

TEST_F(MeasureTest, MeasureWithFilterClause) {
  MustExecute(&db_, R"sql(
    CREATE VIEW V AS SELECT *,
      SUM(revenue) FILTER (WHERE custName <> 'Bob') AS MEASURE nonBobRevenue
    FROM Orders
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(nonBobRevenue) AS r FROM V GROUP BY prodName
    ORDER BY prodName
  )sql");
  EXPECT_TRUE(rs.Get(0, "r").is_null());           // Acme: only Bob
  EXPECT_EQ(rs.Get(1, "r").int_val(), 13);         // Happy minus Bob's 4
}

// ---- diagnostics ----

TEST_F(MeasureTest, AsMeasureInAggregateQueryIsError) {
  auto r = db_.Query(
      "SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders GROUP BY prodName");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBind);
}

TEST_F(MeasureTest, NonAggregatableFormulaIsError) {
  auto r = db_.Query("SELECT *, revenue + 1 AS MEASURE bad FROM Orders");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBind);
}

TEST_F(MeasureTest, GroupByMeasureIsError) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  auto r = db_.Query("SELECT r FROM V GROUP BY r");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBind);
}

TEST_F(MeasureTest, MeasureAsAggregateArgumentIsError) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  auto r = db_.Query("SELECT SUM(r) FROM V GROUP BY prodName");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBind);
}

TEST_F(MeasureTest, DistinctOnMeasureColumnIsError) {
  MustExecute(&db_,
              "CREATE VIEW V AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
  auto r = db_.Query("SELECT DISTINCT prodName, r FROM V");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBind);
}

TEST_F(MeasureTest, SubqueryInMeasureFormulaIsError) {
  auto r = db_.Query(
      "SELECT *, (SELECT MAX(custAge) FROM Customers) AS MEASURE bad "
      "FROM Orders");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBind);
}

}  // namespace
}  // namespace msql
