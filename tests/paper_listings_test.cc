// Reproduces every listing of "Measures in SQL" (Hyde & Fremlin, SIGMOD
// Companion 2024), including the printed result tables of listings 4 and 8.
// See DESIGN.md section 3 for the experiment index.

#include <cmath>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "tests/paper_fixture.h"

namespace msql {
namespace {

// Every listing must reproduce under all three measure-evaluation
// strategies (docs/PERFORMANCE.md): the strategy is an optimization axis,
// never a semantic one.
class PaperListingsTest : public ::testing::TestWithParam<MeasureStrategy> {
 protected:
  void SetUp() override {
    db_.options().measure_strategy = GetParam();
    LoadPaperData(&db_);
  }

  // Finds the row whose first column equals `key` (NULL key: pass "NULL").
  static const Row* FindRow(const ResultSet& rs, const std::string& key) {
    for (const Row& r : rs.rows()) {
      if (r[0].ToString() == key) return &r;
    }
    return nullptr;
  }

  Engine db_;
};

// Listing 1: summarizing Orders by product name with an inline formula.
TEST_P(PaperListingsTest, Listing1SummarizeByProduct) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName,
           COUNT(*) AS c,
           (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
    FROM Orders
    GROUP BY prodName
    ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.Get(0, "prodName").str(), "Acme");
  EXPECT_EQ(rs.Get(0, "c").int_val(), 1);
  EXPECT_NEAR(rs.Get(0, "profitMargin").double_val(), 0.60, 1e-9);
  EXPECT_EQ(rs.Get(1, "prodName").str(), "Happy");
  EXPECT_EQ(rs.Get(1, "c").int_val(), 3);
  EXPECT_NEAR(rs.Get(1, "profitMargin").double_val(), 8.0 / 17.0, 1e-9);
  EXPECT_EQ(rs.Get(2, "prodName").str(), "Whizz");
  EXPECT_NEAR(rs.Get(2, "profitMargin").double_val(), 2.0 / 3.0, 1e-9);
}

// Listing 2: the motivating bug — AVG over a summarizing view weights each
// (prodName, orderDate) combination, not each order, so the result for
// 'Happy' differs from the true margin 8/17.
TEST_P(PaperListingsTest, Listing2AverageOfAveragesIsWrong) {
  MustExecute(&db_, R"sql(
    CREATE VIEW SummarizedOrders AS
    SELECT prodName, orderDate,
           (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
    FROM Orders
    GROUP BY prodName, orderDate
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AVG(profitMargin) AS avgMargin
    FROM SummarizedOrders
    GROUP BY prodName
    ORDER BY prodName
  )sql");
  const Row* happy = FindRow(rs, "Happy");
  ASSERT_NE(happy, nullptr);
  // Average of per-day margins: (2/6 + 3/7 + 3/4) / 3.
  double avg_of_avgs = (2.0 / 6 + 3.0 / 7 + 3.0 / 4) / 3;
  EXPECT_NEAR((*happy)[1].double_val(), avg_of_avgs, 1e-9);
  EXPECT_NE((*happy)[1].double_val(), 8.0 / 17.0);
}

// Listing 3: the EnhancedOrders measure view; AGGREGATE evaluates the
// measure in the context of each group row.
TEST_P(PaperListingsTest, Listing3EnhancedOrdersView) {
  MustExecute(&db_, R"sql(
    CREATE VIEW EnhancedOrders AS
    SELECT orderDate, prodName,
           (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin
    FROM Orders
  )sql");
  // The view has no GROUP BY: same number of rows as Orders.
  ResultSet all = MustQuery(&db_, "SELECT orderDate, prodName FROM EnhancedOrders");
  EXPECT_EQ(all.num_rows(), 5u);

  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(profitMargin) AS m
    FROM EnhancedOrders
    GROUP BY prodName
    ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_NEAR(rs.Get(0, "m").double_val(), 0.60, 1e-9);       // Acme
  EXPECT_NEAR(rs.Get(1, "m").double_val(), 8.0 / 17.0, 1e-9); // Happy
  EXPECT_NEAR(rs.Get(2, "m").double_val(), 2.0 / 3.0, 1e-9);  // Whizz
}

// Listing 4: the paper's printed result table:
//   Acme 0.60 1 / Happy 0.47 3 / Whizz 0.67 1.
TEST_P(PaperListingsTest, Listing4ResultTable) {
  MustExecute(&db_, R"sql(
    CREATE VIEW EnhancedOrders AS
    SELECT orderDate, prodName,
           (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin
    FROM Orders
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(profitMargin) AS profitMargin, COUNT(*) AS c
    FROM EnhancedOrders
    GROUP BY prodName
    ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  struct Expected {
    const char* prod;
    double margin;
    int64_t count;
  };
  const Expected expected[] = {
      {"Acme", 0.60, 1}, {"Happy", 8.0 / 17.0, 3}, {"Whizz", 2.0 / 3.0, 1}};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rs.Get(i, "prodName").str(), expected[i].prod);
    EXPECT_NEAR(rs.Get(i, "profitMargin").double_val(), expected[i].margin,
                0.005);
    EXPECT_EQ(rs.Get(i, "c").int_val(), expected[i].count);
  }
}

// Listing 5: the manually expanded query (correlated scalar subquery) gives
// the same answer as the measure query.
TEST_P(PaperListingsTest, Listing5ManualExpansionMatches) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName,
           (SELECT (SUM(i.revenue) - SUM(i.cost)) / SUM(i.revenue)
            FROM Orders AS i
            WHERE i.prodName = o.prodName) AS profitMargin,
           COUNT(*) AS c
    FROM Orders AS o
    GROUP BY prodName
    ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_NEAR(rs.Get(0, "profitMargin").double_val(), 0.60, 1e-9);
  EXPECT_NEAR(rs.Get(1, "profitMargin").double_val(), 8.0 / 17.0, 1e-9);
  EXPECT_NEAR(rs.Get(2, "profitMargin").double_val(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(rs.Get(1, "c").int_val(), 3);
}

// Listing 6: proportion of total revenue via AT (ALL prodName).
TEST_P(PaperListingsTest, Listing6ProportionOfTotal) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, sumRevenue,
           sumRevenue / sumRevenue AT (ALL prodName)
             AS proportionOfTotalRevenue
    FROM (
      SELECT *, SUM(revenue) AS MEASURE sumRevenue
      FROM Orders) AS o
    GROUP BY prodName
    ORDER BY prodName
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  // Totals: Acme 5, Happy 17, Whizz 3; grand total 25.
  EXPECT_EQ(rs.Get(0, "sumRevenue").int_val(), 5);
  EXPECT_NEAR(rs.Get(0, "proportionOfTotalRevenue").double_val(), 5.0 / 25,
              1e-9);
  EXPECT_EQ(rs.Get(1, "sumRevenue").int_val(), 17);
  EXPECT_NEAR(rs.Get(1, "proportionOfTotalRevenue").double_val(), 17.0 / 25,
              1e-9);
  EXPECT_EQ(rs.Get(2, "sumRevenue").int_val(), 3);
  EXPECT_NEAR(rs.Get(2, "proportionOfTotalRevenue").double_val(), 3.0 / 25,
              1e-9);
}

// Listing 7: year-over-year profit margin via SET / CURRENT; the 2023 margin
// is computed over rows removed by the WHERE clause.
TEST_P(PaperListingsTest, Listing7YearOverYear) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, orderYear,
           profitMargin,
           profitMargin AT (SET orderYear = CURRENT orderYear - 1)
             AS profitMarginLastYear
    FROM (
      SELECT *,
             (SUM(revenue) - SUM(cost)) / SUM(revenue)
               AS MEASURE profitMargin,
             YEAR(orderDate) AS orderYear
      FROM Orders
    )
    WHERE orderYear = 2024
    GROUP BY prodName, orderYear
  )sql");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.Get(0, "prodName").str(), "Happy");
  EXPECT_EQ(rs.Get(0, "orderYear").int_val(), 2024);
  // 2024: Happy revenue 7, cost 4 -> 3/7.
  EXPECT_NEAR(rs.Get(0, "profitMargin").double_val(), 3.0 / 7, 1e-9);
  // 2023: Happy revenue 6, cost 4 -> 2/6 (rows excluded by WHERE).
  EXPECT_NEAR(rs.Get(0, "profitMarginLastYear").double_val(), 2.0 / 6, 1e-9);
}

// Listing 8: the printed VISIBLE/ROLLUP result table:
//   Happy 2 13 13 17 / Whizz 1 3 3 3 / (total) 3 16 16 25.
TEST_P(PaperListingsTest, Listing8VisibleTotals) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT o.prodName,
           COUNT(*) AS c,
           AGGREGATE(o.sumRevenue) AS rAgg,
           o.sumRevenue AT (VISIBLE) AS rViz,
           o.sumRevenue AS r
    FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue
          FROM Orders) AS o
    WHERE o.custName <> 'Bob'
    GROUP BY ROLLUP(o.prodName)
  )sql");
  ASSERT_EQ(rs.num_rows(), 3u);
  const Row* happy = FindRow(rs, "Happy");
  ASSERT_NE(happy, nullptr);
  EXPECT_EQ((*happy)[1].int_val(), 2);   // c
  EXPECT_EQ((*happy)[2].int_val(), 13);  // rAgg
  EXPECT_EQ((*happy)[3].int_val(), 13);  // rViz
  EXPECT_EQ((*happy)[4].int_val(), 17);  // r (ignores WHERE)
  const Row* whizz = FindRow(rs, "Whizz");
  ASSERT_NE(whizz, nullptr);
  EXPECT_EQ((*whizz)[1].int_val(), 1);
  EXPECT_EQ((*whizz)[2].int_val(), 3);
  EXPECT_EQ((*whizz)[3].int_val(), 3);
  EXPECT_EQ((*whizz)[4].int_val(), 3);
  const Row* total = FindRow(rs, "NULL");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ((*total)[1].int_val(), 3);
  EXPECT_EQ((*total)[2].int_val(), 16);
  EXPECT_EQ((*total)[3].int_val(), 16);
  EXPECT_EQ((*total)[4].int_val(), 25);
}

// Listing 9: joins — the weighted average uses joined rows; the bare measure
// ignores join and filter; VISIBLE preserves the customer grain (each
// customer counted once regardless of order fan-out).
TEST_P(PaperListingsTest, Listing9JoinGrainPreservation) {
  ResultSet rs = MustQuery(&db_, R"sql(
    WITH EnhancedCustomers AS (
      SELECT *, AVG(custAge) AS MEASURE avgAge
      FROM Customers)
    SELECT o.prodName,
           COUNT(*) AS orderCount,
           AVG(c.custAge) AS weightedAvgAge,
           c.avgAge AS avgAge,
           c.avgAge AT (VISIBLE) AS visibleAvgAge
    FROM Orders AS o
    JOIN EnhancedCustomers AS c USING (custName)
    WHERE c.custAge >= 18
    GROUP BY o.prodName
    ORDER BY o.prodName
  )sql");
  // Whizz (Celia, 17) is filtered out entirely.
  ASSERT_EQ(rs.num_rows(), 2u);
  const Row* happy = FindRow(rs, "Happy");
  ASSERT_NE(happy, nullptr);
  EXPECT_EQ(rs.Get(1, "prodName").str(), "Happy");
  EXPECT_EQ((*happy)[1].int_val(), 3);  // Alice x2 + Bob x1
  // Weighted: (23 + 23 + 41) / 3 = 29.
  EXPECT_NEAR((*happy)[2].double_val(), 29.0, 1e-9);
  // Bare measure: group key prodName is not a Customers dimension, and the
  // default context ignores WHERE/join -> average over ALL customers.
  EXPECT_NEAR((*happy)[3].double_val(), (23 + 41 + 17) / 3.0, 1e-9);
  // VISIBLE: customers reachable in this group, each once: Alice, Bob.
  EXPECT_NEAR((*happy)[4].double_val(), (23 + 41) / 2.0, 1e-9);

  const Row* acme = FindRow(rs, "Acme");
  ASSERT_NE(acme, nullptr);
  EXPECT_EQ((*acme)[1].int_val(), 1);
  EXPECT_NEAR((*acme)[2].double_val(), 41.0, 1e-9);
  EXPECT_NEAR((*acme)[4].double_val(), 41.0, 1e-9);
}

// Listing 10: year-over-year ratio through a view.
TEST_P(PaperListingsTest, Listing10YearOverYearRatio) {
  MustExecute(&db_, R"sql(
    CREATE VIEW OrdersWithRevenue AS
    SELECT *, SUM(revenue) AS MEASURE sumRevenue
    FROM Orders
  )sql");
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, YEAR(orderDate) AS orderYear,
           sumRevenue / sumRevenue AT
             (SET orderYear = CURRENT orderYear - 1) AS ratio
    FROM OrdersWithRevenue
    GROUP BY prodName, YEAR(orderDate)
    ORDER BY prodName, orderYear
  )sql");
  // Groups: Acme/2023, Happy/2022, Happy/2023, Happy/2024, Whizz/2023.
  ASSERT_EQ(rs.num_rows(), 5u);
  // NOTE: `SET orderYear = ...` refers to the alias of YEAR(orderDate); the
  // only well-defined ratios are Happy 2023/2022 = 6/4 and 2024/2023 = 7/6.
  int checked = 0;
  for (const Row& r : rs.rows()) {
    if (r[0].str() == "Happy" && r[1].int_val() == 2023) {
      EXPECT_NEAR(r[2].double_val(), 6.0 / 4, 1e-9);
      ++checked;
    }
    if (r[0].str() == "Happy" && r[1].int_val() == 2024) {
      EXPECT_NEAR(r[2].double_val(), 7.0 / 6, 1e-9);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
}

// Listing 11: the expansion with the auxiliary computeSumRevenue function —
// expressed here as the equivalent correlated-subquery SQL.
TEST_P(PaperListingsTest, Listing11ExpandedFormMatchesMeasures) {
  ResultSet expanded = MustQuery(&db_, R"sql(
    SELECT o.prodName, YEAR(o.orderDate) AS orderYear,
           (SELECT SUM(r.revenue) FROM Orders AS r
            WHERE r.prodName = o.prodName
              AND YEAR(r.orderDate) = YEAR(o.orderDate))
           /
           (SELECT SUM(r.revenue) FROM Orders AS r
            WHERE r.prodName = o.prodName
              AND YEAR(r.orderDate) = YEAR(o.orderDate) - 1) AS ratio
    FROM Orders AS o
    GROUP BY prodName, YEAR(orderDate)
    ORDER BY prodName, orderYear
  )sql");
  MustExecute(&db_, R"sql(
    CREATE VIEW OrdersWithRevenue AS
    SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders
  )sql");
  ResultSet measured = MustQuery(&db_, R"sql(
    SELECT prodName, YEAR(orderDate) AS orderYear,
           sumRevenue / sumRevenue AT
             (SET orderYear = CURRENT orderYear - 1) AS ratio
    FROM (SELECT *, YEAR(orderDate) AS orderYear FROM OrdersWithRevenue)
    GROUP BY prodName, YEAR(orderDate)
    ORDER BY prodName, orderYear
  )sql");
  ASSERT_EQ(expanded.num_rows(), measured.num_rows());
  for (size_t i = 0; i < expanded.num_rows(); ++i) {
    EXPECT_EQ(expanded.Get(i, 0).ToString(), measured.Get(i, 0).ToString());
    EXPECT_EQ(expanded.Get(i, 1).ToString(), measured.Get(i, 1).ToString());
    if (expanded.Get(i, 2).is_null()) {
      EXPECT_TRUE(measured.Get(i, 2).is_null());
    } else {
      EXPECT_NEAR(expanded.Get(i, 2).double_val(),
                  measured.Get(i, 2).double_val(), 1e-9);
    }
  }
}

// Listing 12: four equivalent formulations of "orders with revenue above the
// product average" return identical row sets.
TEST_P(PaperListingsTest, Listing12FourEquivalentQueries) {
  const char* q1 = R"sql(
    SELECT o.prodName, o.orderDate
    FROM Orders AS o
    WHERE o.revenue >
      (SELECT AVG(revenue) FROM Orders AS o1
       WHERE o1.prodName = o.prodName)
    ORDER BY prodName, orderDate
  )sql";
  const char* q2 = R"sql(
    SELECT o.prodName, o.orderDate
    FROM Orders AS o
    LEFT JOIN
      (SELECT prodName, AVG(revenue) AS avgRevenue
       FROM Orders
       GROUP BY prodName) AS o2
    ON o.prodName = o2.prodName
    WHERE o.revenue > o2.avgRevenue
    ORDER BY prodName, orderDate
  )sql";
  const char* q3 = R"sql(
    SELECT o.prodName, o.orderDate
    FROM
      (SELECT prodName, revenue, orderDate,
              AVG(revenue) OVER (PARTITION BY prodName) AS avgRevenue
       FROM Orders) AS o
    WHERE o.revenue > o.avgRevenue
    ORDER BY prodName, orderDate
  )sql";
  const char* q4 = R"sql(
    SELECT o.prodName, o.orderDate
    FROM
      (SELECT prodName, orderDate, revenue,
              AVG(revenue) AS MEASURE avgRevenue
       FROM Orders) AS o
    WHERE o.revenue >
      o.avgRevenue AT (WHERE prodName = o.prodName)
    ORDER BY prodName, orderDate
  )sql";

  ResultSet r1 = MustQuery(&db_, q1);
  ResultSet r2 = MustQuery(&db_, q2);
  ResultSet r3 = MustQuery(&db_, q3);
  ResultSet r4 = MustQuery(&db_, q4);

  ASSERT_GT(r1.num_rows(), 0u);
  for (const ResultSet* other : {&r2, &r3, &r4}) {
    ASSERT_EQ(r1.num_rows(), other->num_rows());
    for (size_t i = 0; i < r1.num_rows(); ++i) {
      EXPECT_EQ(r1.Get(i, 0).ToString(), other->Get(i, 0).ToString());
      EXPECT_EQ(r1.Get(i, 1).ToString(), other->Get(i, 1).ToString());
    }
  }
  // Happy's average revenue is 17/3 = 5.67, so the 2023 (6) and 2024 (7)
  // orders qualify; Acme and Whizz single orders equal their own average.
  ASSERT_EQ(r1.num_rows(), 2u);
  EXPECT_EQ(r1.Get(0, 0).str(), "Happy");
  EXPECT_EQ(r1.Get(0, 1).ToString(), "2023-11-28");
  EXPECT_EQ(r1.Get(1, 0).str(), "Happy");
  EXPECT_EQ(r1.Get(1, 1).ToString(), "2024-11-28");
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PaperListingsTest,
    ::testing::Values(MeasureStrategy::kNaive, MeasureStrategy::kGrouped),
    [](const ::testing::TestParamInfo<MeasureStrategy>& info) {
      switch (info.param) {
        case MeasureStrategy::kNaive: return "Naive";
        case MeasureStrategy::kGrouped: return "Grouped";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace msql
