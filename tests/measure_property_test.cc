// Property-based tests: invariants of measure semantics checked over
// randomized datasets (parameterized by seed). Each property is the kind of
// algebraic identity the paper's semantics imply.

#include <random>

#include "common/string_util.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "tests/paper_fixture.h"
#include "tests/testing_matchers.h"

namespace msql {
namespace {

// Builds a random Orders-like table with `n` rows.
void LoadRandomOrders(Engine* db, uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> prod(0, 5);
  std::uniform_int_distribution<int> cust(0, 3);
  std::uniform_int_distribution<int> year(2020, 2024);
  std::uniform_int_distribution<int> month(1, 12);
  std::uniform_int_distribution<int> day(1, 28);
  std::uniform_int_distribution<int> revenue(1, 100);

  MustExecute(db, R"sql(
    CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR,
                         orderDate DATE, revenue INTEGER, cost INTEGER)
  )sql");
  std::string insert = "INSERT INTO Orders VALUES ";
  for (int i = 0; i < n; ++i) {
    int rev = revenue(rng);
    int cost = std::max(1, rev - 1 - (rev > 1 ? revenue(rng) % rev : 0));
    if (i > 0) insert += ", ";
    insert += StrCat("('P", prod(rng), "', 'C", cust(rng), "', DATE '",
                     year(rng), "-", month(rng) < 10 ? "0" : "", month(rng),
                     "-", day(rng) < 10 ? "0" : "", day(rng), "', ", rev, ", ",
                     cost, ")");
  }
  MustExecute(db, insert);
  MustExecute(db, R"sql(
    CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r,
                             COUNT(*) AS MEASURE n,
                             YEAR(orderDate) AS orderYear
    FROM Orders
  )sql");
}

class MeasurePropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override { LoadRandomOrders(&db_, GetParam(), 80); }
  Engine db_;
};

// Property 1: AGGREGATE(m) over a measure equals the plain aggregate.
TEST_P(MeasurePropertyTest, AggregateEqualsPlainSum) {
  ResultSet measured = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName
    ORDER BY prodName
  )sql");
  ResultSet plain = MustQuery(&db_, R"sql(
    SELECT prodName, SUM(revenue) AS v FROM Orders GROUP BY prodName
    ORDER BY prodName
  )sql");
  EXPECT_TRUE(testing::ResultsAgree(measured, plain));
}

// Property 2: shares computed via AT (ALL dim) sum to 1.
TEST_P(MeasurePropertyTest, SharesSumToOne) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, r * 1.0 / r AT (ALL prodName) AS share
    FROM EO GROUP BY prodName
  )sql");
  double total = 0;
  for (const Row& row : rs.rows()) total += row[1].double_val();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// Property 3: with no WHERE clause, bare measure == VISIBLE == AGGREGATE.
TEST_P(MeasurePropertyTest, NoFilterMakesAllCallSitesAgree) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, r AS bare, r AT (VISIBLE) AS viz, AGGREGATE(r) AS agg
    FROM EO GROUP BY prodName
  )sql");
  for (const Row& row : rs.rows()) {
    EXPECT_TRUE(testing::CellsAgree(row[1], row[2]));
    EXPECT_TRUE(testing::CellsAgree(row[1], row[3]));
  }
}

// Property 4: the grouped strategy agrees with the literal naive one (the
// localized-self-join cache and the value tables are optimizations, never a
// semantic change).
TEST_P(MeasurePropertyTest, StrategiesAgree) {
  const char* query = R"sql(
    SELECT prodName, orderYear, AGGREGATE(r) AS v,
           r AT (SET orderYear = CURRENT orderYear - 1) AS prev,
           r AT (ALL) AS total
    FROM EO WHERE custName <> 'C0'
    GROUP BY prodName, orderYear
    ORDER BY prodName, orderYear
  )sql";
  // Grouped runs first: a later run would find every value already in the
  // shared measure cache and never need to probe its index.
  db_.options().measure_strategy = MeasureStrategy::kGrouped;
  ResultSet grouped = MustQuery(&db_, query);
  ASSERT_NE(grouped.stats(), nullptr);
  EXPECT_GT(grouped.stats()->measure_grouped_probes, 0u);
  // `r AT (ALL)` repeats one context per group: the per-context memo.
  EXPECT_GT(grouped.stats()->measure_cache_hits, 0u);
  db_.options().measure_strategy = MeasureStrategy::kNaive;
  ResultSet naive = MustQuery(&db_, query);
  ASSERT_NE(naive.stats(), nullptr);
  EXPECT_EQ(naive.stats()->measure_cache_hits, 0u);
  EXPECT_TRUE(testing::ResultsAgree(grouped, naive));
}

// Property 4c: both strategies agree on every context kind the
// evaluator distinguishes — all-dimension contexts (value-table lookups),
// WHERE-modifier predicate contexts (scan fallback), VISIBLE row-id
// contexts (inline fast path) — including NULL dimension values, which
// group by IS NOT DISTINCT FROM semantics (paper footnote 1).
TEST_P(MeasurePropertyTest, StrategiesAgreeOnEveryContextKind) {
  MustExecute(&db_, R"sql(
    INSERT INTO Orders VALUES (NULL, NULL, DATE '2022-06-15', 17, 5),
                              (NULL, 'C1', DATE '2023-01-02', 23, 9),
                              ('P1', NULL, DATE '2021-11-30', 31, 12)
  )sql");
  const char* queries[] = {
      // Bare measure + AT (ALL dim): all-dimension contexts.
      "SELECT prodName, custName, r AS bare, r AT (ALL custName) AS byProd "
      "FROM EO GROUP BY prodName, custName "
      "ORDER BY prodName NULLS LAST, custName NULLS LAST",
      // WHERE modifier: predicate contexts are not groupable.
      "SELECT prodName, r AT (WHERE revenue > 40) AS big FROM EO "
      "GROUP BY prodName ORDER BY prodName NULLS LAST",
      // VISIBLE under a filter: row-id contexts take the inline path.
      "SELECT custName, AGGREGATE(r) AS agg, r AT (VISIBLE) AS viz "
      "FROM EO WHERE revenue > 20 GROUP BY custName "
      "ORDER BY custName NULLS LAST",
      // Render path: the measure survives to the top level and is
      // evaluated per row with every dimension pinned.
      "SELECT prodName, custName, revenue, r FROM EO WHERE revenue > 60 "
      "ORDER BY prodName NULLS LAST, custName NULLS LAST, revenue",
  };
  for (const char* query : queries) {
    db_.options().measure_strategy = MeasureStrategy::kGrouped;
    ResultSet grouped = MustQuery(&db_, query);
    db_.options().measure_strategy = MeasureStrategy::kNaive;
    ResultSet naive = MustQuery(&db_, query);
    EXPECT_TRUE(testing::ResultsAgree(grouped, naive)) << query;
  }
}

// Property 4d: grouped evaluation at scale answers every group from one
// value table per measure over one shared partition of the source, and is
// deterministic — it agrees with a run capped at one measure worker and
// with the naive strategy. (These dimensions have vector kernels, so
// neither grouped run evaluates keys on the worker pool.)
TEST_P(MeasurePropertyTest, GroupedAgreesAtScale) {
  const char* query = R"sql(
    SELECT prodName, custName, orderYear, r AS v, n AS c FROM EO
    GROUP BY prodName, custName, orderYear
    ORDER BY prodName, custName, orderYear
  )sql";
  Engine par;
  par.options().measure_strategy = MeasureStrategy::kGrouped;
  LoadRandomOrders(&par, GetParam() ^ 0x5eed, 2000);
  ResultSet parallel = MustQuery(&par, query);
  ASSERT_NE(parallel.stats(), nullptr);
  // One partition shared by both measure columns, one lookup per group and
  // column, and no scans of the measure source.
  EXPECT_EQ(parallel.stats()->measure_grouped_builds, 1u);
  EXPECT_EQ(parallel.stats()->measure_grouped_probes,
            2u * parallel.num_rows());
  EXPECT_EQ(parallel.stats()->measure_source_scans, 0u);
  EXPECT_EQ(parallel.stats()->measure_grouped_fallbacks, 0u);

  Engine solo;
  solo.options().measure_strategy = MeasureStrategy::kGrouped;
  solo.options().measure_parallelism = 1;  // same strategy, no workers
  LoadRandomOrders(&solo, GetParam() ^ 0x5eed, 2000);
  ResultSet serial = MustQuery(&solo, query);
  ASSERT_NE(serial.stats(), nullptr);
  EXPECT_EQ(serial.stats()->measure_parallel_tasks, 0u);

  solo.options().measure_strategy = MeasureStrategy::kNaive;
  ResultSet naive = MustQuery(&solo, query);

  EXPECT_TRUE(testing::ResultsAgree(parallel, serial));
  EXPECT_TRUE(testing::ResultsAgree(parallel, naive));
}

// Property 4b: the section 6.4 inline fast path never changes results: the
// default strategy takes it, kNaive scans the source for every context.
TEST_P(MeasurePropertyTest, InlineFastpathAgrees) {
  const char* query = R"sql(
    SELECT prodName, custName, AGGREGATE(r) AS v, AGGREGATE(n) AS c
    FROM EO WHERE revenue > 10
    GROUP BY ROLLUP(prodName, custName)
    ORDER BY prodName NULLS LAST, custName NULLS LAST
  )sql";
  ResultSet fast = MustQuery(&db_, query);
  ASSERT_NE(fast.stats(), nullptr);
  EXPECT_GT(fast.stats()->measure_inline_evals, 0u);
  db_.options().measure_strategy = MeasureStrategy::kNaive;
  ResultSet slow = MustQuery(&db_, query);
  ASSERT_NE(slow.stats(), nullptr);
  EXPECT_EQ(slow.stats()->measure_inline_evals, 0u);
  EXPECT_TRUE(testing::ResultsAgree(fast, slow));
  db_.options().measure_strategy = MeasureStrategy::kGrouped;
  // Also under a join, where the visible set deduplicates fan-out.
  MustExecute(&db_, R"sql(
    CREATE TABLE Customers (custName VARCHAR, custAge INTEGER);
    INSERT INTO Customers VALUES ('C0', 20), ('C1', 30), ('C2', 40), ('C3', 50);
    CREATE VIEW EC AS SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers
  )sql");
  const char* join_query = R"sql(
    SELECT o.prodName, AGGREGATE(c.avgAge) AS a
    FROM Orders AS o JOIN EC AS c USING (custName)
    GROUP BY o.prodName ORDER BY o.prodName
  )sql";
  ResultSet jfast = MustQuery(&db_, join_query);
  ASSERT_NE(jfast.stats(), nullptr);
  EXPECT_GT(jfast.stats()->measure_inline_evals, 0u);
  db_.options().measure_strategy = MeasureStrategy::kNaive;
  ResultSet jslow = MustQuery(&db_, join_query);
  ASSERT_NE(jslow.stats(), nullptr);
  EXPECT_EQ(jslow.stats()->measure_inline_evals, 0u);
  EXPECT_TRUE(testing::ResultsAgree(jfast, jslow));
}

// Property 5: the textual expansion produces identical results.
TEST_P(MeasurePropertyTest, ExpansionAgrees) {
  const char* queries[] = {
      "SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName "
      "ORDER BY prodName",
      "SELECT prodName, r AT (ALL prodName) AS v FROM EO GROUP BY prodName "
      "ORDER BY prodName",
      "SELECT custName, r AT (SET custName = 'C1') AS v FROM EO "
      "GROUP BY custName ORDER BY custName",
      "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > 50 "
      "GROUP BY prodName ORDER BY prodName",
  };
  for (const char* q : queries) {
    auto expanded = db_.ExpandSql(q);
    ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
    ResultSet native = MustQuery(&db_, q);
    ResultSet plain = MustQuery(&db_, expanded.value());
    // The oracle's comparison, not strict NotDistinct: the rewrite may
    // legitimately change an INT64 column to DOUBLE and reassociate sums.
    EXPECT_TRUE(testing::ResultsAgree(native, plain)) << q;
  }
}

// Property 6: the four listing-12 formulations agree on random data.
TEST_P(MeasurePropertyTest, FourFormulationsAgree) {
  ResultSet r1 = MustQuery(&db_, R"sql(
    SELECT o.prodName, o.orderDate, o.revenue FROM Orders AS o
    WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
                       WHERE o1.prodName = o.prodName)
    ORDER BY prodName, orderDate, revenue
  )sql");
  ResultSet r3 = MustQuery(&db_, R"sql(
    SELECT o.prodName, o.orderDate, o.revenue FROM
      (SELECT prodName, revenue, orderDate,
              AVG(revenue) OVER (PARTITION BY prodName) AS avgRevenue
       FROM Orders) AS o
    WHERE o.revenue > o.avgRevenue
    ORDER BY prodName, orderDate, revenue
  )sql");
  ResultSet r4 = MustQuery(&db_, R"sql(
    SELECT o.prodName, o.orderDate, o.revenue FROM
      (SELECT prodName, orderDate, revenue,
              AVG(revenue) AS MEASURE avgRevenue FROM Orders) AS o
    WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
    ORDER BY prodName, orderDate, revenue
  )sql");
  EXPECT_TRUE(testing::ResultsAgree(r1, r3));
  EXPECT_TRUE(testing::ResultsAgree(r1, r4));
}

// Property 7: in a ROLLUP, the grand-total AGGREGATE equals the sum of the
// per-group AGGREGATEs (additive measure).
TEST_P(MeasurePropertyTest, RollupTotalEqualsSumOfLeaves) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY ROLLUP(prodName)
  )sql");
  int64_t leaves = 0, total = -1;
  for (const Row& row : rs.rows()) {
    if (row[0].is_null()) {
      total = row[1].int_val();
    } else {
      leaves += row[1].int_val();
    }
  }
  EXPECT_EQ(leaves, total);
}

// Property 8: COUNT measure with VISIBLE equals COUNT(*) per group when the
// measure table is the query table (same grain).
TEST_P(MeasurePropertyTest, CountMeasureMatchesCountStar) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT custName, COUNT(*) AS cs, AGGREGATE(n) AS cm
    FROM EO WHERE revenue > 20 GROUP BY custName
  )sql");
  for (const Row& row : rs.rows()) {
    EXPECT_TRUE(testing::CellsAgree(row[1], row[2]));
  }
}

// Property 9: SET to the current value is the identity.
TEST_P(MeasurePropertyTest, SetToCurrentIsIdentity) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT orderYear, AGGREGATE(r) AS v,
           r AT (SET orderYear = CURRENT orderYear) AS same
    FROM EO GROUP BY orderYear
  )sql");
  for (const Row& row : rs.rows()) {
    EXPECT_TRUE(testing::CellsAgree(row[1], row[2]));
  }
}

// Property 10: ALL on every group dimension equals AT (ALL) when the query
// has no WHERE clause.
TEST_P(MeasurePropertyTest, AllDimsEqualsAll) {
  ResultSet rs = MustQuery(&db_, R"sql(
    SELECT prodName, custName,
           r AT (ALL prodName custName) AS cleared, r AT (ALL) AS everything
    FROM EO GROUP BY prodName, custName
  )sql");
  for (const Row& row : rs.rows()) {
    EXPECT_TRUE(testing::CellsAgree(row[2], row[3]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasurePropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace msql
