// Tests for the binder/planner layer observed through EXPLAIN: operator
// placement, measure propagation markers, grouping-set counts, join
// algorithm selection hints, and filter pushdown below joins.

#include <vector>

#include "binder/binder.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "tests/paper_fixture.h"

namespace msql {
namespace {

constexpr char kEoView[] =
    "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders";

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadPaperData(&db_);
    MustExecute(&db_, kEoView);
  }

  std::string Plan(const std::string& sql) {
    auto r = db_.Explain(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n  in: " << sql;
    return r.ok() ? r.value() : "";
  }

  Engine db_;
};

TEST_F(PlanTest, SimpleSelectIsProjectOverScan) {
  std::string plan = Plan("SELECT prodName FROM Orders");
  EXPECT_NE(plan.find("Project"), std::string::npos);
  EXPECT_NE(plan.find("Scan Orders"), std::string::npos);
  EXPECT_EQ(plan.find("Aggregate"), std::string::npos);
}

TEST_F(PlanTest, WhereBecomesFilter) {
  std::string plan = Plan("SELECT prodName FROM Orders WHERE revenue > 3");
  EXPECT_NE(plan.find("Filter (revenue > 3)"), std::string::npos);
}

TEST_F(PlanTest, GroupByBecomesAggregate) {
  std::string plan =
      Plan("SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName");
  EXPECT_NE(plan.find("Aggregate keys=[prodName] outs=[SUM(revenue)]"),
            std::string::npos);
}

TEST_F(PlanTest, HavingIsFilterAboveAggregate) {
  std::string plan = Plan(
      "SELECT prodName FROM Orders GROUP BY prodName HAVING COUNT(*) > 1");
  size_t filter = plan.find("Filter");
  size_t agg = plan.find("Aggregate");
  ASSERT_NE(filter, std::string::npos);
  ASSERT_NE(agg, std::string::npos);
  EXPECT_LT(filter, agg);  // filter printed above (before) the aggregate
}

TEST_F(PlanTest, RollupProducesMultipleSets) {
  std::string plan = Plan(
      "SELECT prodName, custName, COUNT(*) FROM Orders "
      "GROUP BY ROLLUP(prodName, custName)");
  EXPECT_NE(plan.find("sets=3"), std::string::npos);
}

TEST_F(PlanTest, MeasureViewCarriesMeasureMarker) {
  std::string plan = Plan("SELECT prodName, r FROM EO");
  EXPECT_NE(plan.find("measures=[r]"), std::string::npos);
}

TEST_F(PlanTest, MeasureEvalAppearsInAggregateOuts) {
  std::string plan =
      Plan("SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
  EXPECT_NE(plan.find("r AT (VISIBLE)"), std::string::npos);
}

TEST_F(PlanTest, FilterPropagatesMeasures) {
  std::string plan = Plan("SELECT prodName, r FROM EO WHERE revenue > 3");
  // Both the filter node and the project above it should carry the measure.
  size_t first = plan.find("measures=[r]");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(plan.find("measures=[r]", first + 1), std::string::npos);
}

TEST_F(PlanTest, JoinShowsTypeAndCondition) {
  std::string plan = Plan(
      "SELECT o.prodName FROM Orders AS o "
      "LEFT JOIN Customers AS c ON o.custName = c.custName");
  EXPECT_NE(plan.find("Join LEFT ON"), std::string::npos);
}

TEST_F(PlanTest, SortBelowProjectForGroupedQuery) {
  std::string plan = Plan(
      "SELECT prodName, SUM(revenue) AS s FROM Orders "
      "GROUP BY prodName ORDER BY s DESC");
  size_t project = plan.find("Project");
  size_t sort = plan.find("Sort");
  ASSERT_NE(project, std::string::npos);
  ASSERT_NE(sort, std::string::npos);
  EXPECT_LT(project, sort);  // Project on top, Sort beneath
}

TEST_F(PlanTest, WindowNodeForOverClause) {
  std::string plan = Plan(
      "SELECT revenue, SUM(revenue) OVER (PARTITION BY prodName) FROM Orders");
  EXPECT_NE(plan.find("Window"), std::string::npos);
  EXPECT_NE(plan.find("PARTITION BY prodName"), std::string::npos);
}

TEST_F(PlanTest, LimitAndDistinctNodes) {
  std::string plan = Plan("SELECT DISTINCT prodName FROM Orders LIMIT 2");
  EXPECT_NE(plan.find("Limit"), std::string::npos);
  EXPECT_NE(plan.find("Distinct"), std::string::npos);
}

TEST_F(PlanTest, SetOpNode) {
  std::string plan = Plan(
      "SELECT prodName FROM Orders UNION SELECT custName FROM Customers");
  EXPECT_NE(plan.find("SetOp UNION"), std::string::npos);
}

TEST_F(PlanTest, ViewExpansionInlinesThePlan) {
  // The view is not a black box: EXPLAIN shows the expanded tree down to
  // the base-table scan.
  std::string plan = Plan("SELECT prodName FROM EO");
  EXPECT_NE(plan.find("Scan Orders"), std::string::npos);
}

TEST_F(PlanTest, BinderIsReusableAcrossStatements) {
  // One binder instance can bind successive statements without state leaks.
  Binder binder(&db_.catalog(), "");
  for (const char* sql :
       {"SELECT prodName FROM Orders",
        "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName",
        "SELECT COUNT(*) FROM Customers"}) {
    auto stmt = Parser::Parse(sql);
    ASSERT_TRUE(stmt.ok());
    auto plan = binder.Bind(*stmt.value()->select);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  }
}

// ---- filter pushdown below joins (plan/rewrite.h) -------------------------

// The same data under the naive strategy, which runs the literal plan: every
// rewritten answer must equal its answer.
class PushdownTest : public PlanTest {
 protected:
  void SetUp() override {
    PlanTest::SetUp();
    EngineOptions naive;
    naive.measure_strategy = MeasureStrategy::kNaive;
    literal_ = std::make_unique<Engine>(naive);
    LoadPaperData(literal_.get());
    MustExecute(literal_.get(), kEoView);
    for (Engine* db : {&db_, literal_.get()}) {
      MustExecute(db,
                  "CREATE VIEW EC AS SELECT *, AVG(custAge) AS MEASURE avgAge, "
                  "COUNT(*) AS MEASURE custCount FROM Customers");
      // The benchmark's fact view and a stack of three views over it.
      MustExecute(db,
                  "CREATE VIEW EM AS SELECT *, SUM(revenue) AS MEASURE "
                  "sumRevenue, (SUM(revenue) - SUM(cost)) * 1.0 / "
                  "SUM(revenue) AS MEASURE margin, COUNT(*) AS MEASURE "
                  "orderCount, YEAR(orderDate) AS orderYear FROM Orders");
      MustExecute(db, "CREATE VIEW S1 AS SELECT * FROM EM");
      MustExecute(db, "CREATE VIEW S2 AS SELECT * FROM S1");
      MustExecute(db, "CREATE VIEW S3 AS SELECT * FROM S2");
    }
  }

  // EXPLAIN lines, each with its depth (two spaces per level).
  struct Line {
    std::string text;
    size_t depth;
  };
  std::vector<Line> Lines(const std::string& sql) {
    std::vector<Line> out;
    for (const std::string& l : Split(Plan(sql), '\n')) {
      if (l.empty()) continue;
      const size_t spaces = l.find_first_not_of(' ');
      out.push_back({l.substr(spaces), spaces / 2});
    }
    return out;
  }
  static size_t Find(const std::vector<Line>& lines, const std::string& head) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].text.rfind(head, 0) == 0) return i;
    }
    return lines.size();
  }
  static size_t FindWith(const std::vector<Line>& lines,
                         const std::string& needle) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].text.find(needle) != std::string::npos) return i;
    }
    return lines.size();
  }

  // Runs `sql` on both engines and checks the answers agree.
  ResultSet SameAsLiteral(const std::string& sql) {
    ResultSet rewritten = MustQuery(&db_, sql);
    ResultSet literal = MustQuery(literal_.get(), sql);
    EXPECT_EQ(rewritten.ToCsv(), literal.ToCsv()) << sql;
    return rewritten;
  }

  std::unique_ptr<Engine> literal_;
};

TEST_F(PushdownTest, CustomerGrainFilterRunsBelowTheJoin) {
  const std::string sql =
      "SELECT o.prodName, c.avgAge AT (VISIBLE) AS age, "
      "AGGREGATE(c.custCount) AS n FROM Orders AS o JOIN EC AS c "
      "USING (custName) WHERE o.prodName IN ('Happy', 'Acme') "
      "GROUP BY o.prodName ORDER BY o.prodName";
  auto lines = Lines(sql);
  const size_t join = Find(lines, "Join INNER");
  const size_t filter = Find(lines, "Filter (prodName IN");
  ASSERT_LT(join, lines.size());
  ASSERT_LT(filter, lines.size());
  EXPECT_GT(filter, join);
  EXPECT_EQ(lines[filter].depth, lines[join].depth + 1);
  ASSERT_LT(filter + 1, lines.size());
  EXPECT_EQ(lines[filter + 1].text, "Scan Orders");
  EXPECT_EQ(lines[filter + 1].depth, lines[filter].depth + 1);
  // The literal plan filters the joined rows instead.
  auto literal = literal_->Explain(sql);
  ASSERT_TRUE(literal.ok());
  EXPECT_LT(literal.value().find("Filter"), literal.value().find("Join"));

  ResultSet rs = SameAsLiteral(sql);
  ASSERT_EQ(rs.num_rows(), 2u);
}

TEST_F(PushdownTest, FilterRunsInsideTheMeasureDefiningProject) {
  // Paper fixture: the filter becomes the pre-filter of EO's defining
  // Project, whose input is still the unfiltered scan, so the measure's
  // source is every order and AT (ALL) still reads them all.
  const std::string sql =
      "SELECT o.prodName, o.r AS r, o.r AT (ALL) AS total "
      "FROM EO AS o JOIN Customers AS c USING (custName) "
      "WHERE o.prodName = 'Happy' GROUP BY o.prodName";
  auto lines = Lines(sql);
  const size_t join = Find(lines, "Join INNER");
  const size_t project = FindWith(lines, "WHERE (prodName = 'Happy')");
  ASSERT_LT(project, lines.size());
  EXPECT_EQ(Find(lines, "Filter"), lines.size());
  EXPECT_GT(project, join);
  EXPECT_EQ(lines[project].depth, lines[join].depth + 1);
  EXPECT_EQ(lines[project].text.rfind("Project", 0), 0u);
  EXPECT_NE(lines[project].text.find("expands=[r := SUM(revenue)]"),
            std::string::npos);
  ASSERT_LT(project + 1, lines.size());
  EXPECT_EQ(lines[project + 1].text, "Scan Orders");
  EXPECT_EQ(lines[project + 1].depth, lines[project].depth + 1);

  ResultSet rs = SameAsLiteral(sql);
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.Get(0, "r").int_val(), 17);  // 6 + 7 + 4
  EXPECT_EQ(rs.Get(0, "total").int_val(), 25);  // the grand total
}

TEST_F(PushdownTest, MarginPerProductFiltersInsideTheView) {
  // The dashboard's margin_per_product shape: an IN filter over the measure
  // view moves into its defining Project and runs there vectorized.
  const std::string sql =
      "SELECT prodName, AGGREGATE(margin) AS m, AGGREGATE(orderCount) AS n "
      "FROM EM WHERE prodName IN ('Happy', 'Acme') GROUP BY prodName "
      "ORDER BY prodName";
  auto lines = Lines(sql);
  EXPECT_EQ(Find(lines, "Filter"), lines.size());
  const size_t project = FindWith(lines, "WHERE (prodName IN ('Happy', ");
  ASSERT_LT(project + 1, lines.size());
  EXPECT_NE(lines[project].text.find("expands=[sumRevenue"),
            std::string::npos);
  EXPECT_EQ(lines[project + 1].text, "Scan Orders");

  ResultSet rs = SameAsLiteral(sql);
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.Get(0, "prodName").str(), "Acme");
  EXPECT_EQ(rs.Get(0, "n").int_val(), 1);
  EXPECT_EQ(rs.Get(1, "n").int_val(), 3);
  // Happy: (17 - 9) / 17.
  EXPECT_DOUBLE_EQ(rs.Get(1, "m").double_val(), 8.0 / 17.0);
  auto analyzed = db_.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok());
  const std::string text = analyzed.value().ToString();
  const size_t at = text.find("WHERE (prodName IN");
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  EXPECT_NE(line.find("rows=4"), std::string::npos) << line;
  EXPECT_NE(line.find("exec=vectorized"), std::string::npos) << line;
  EXPECT_NE(line.find("fallbacks=0"), std::string::npos) << line;
}

TEST_F(PushdownTest, FilterSinksThroughAViewStack) {
  // S3 over S2 over S1 over EM: the filter over the top view becomes the
  // pre-filter of EM's Project, rewritten over the scan's columns; the
  // views between project every row they get.
  const std::string sql =
      "SELECT orderYear, sumRevenue AS r, AGGREGATE(sumRevenue) AS v, "
      "sumRevenue AT (ALL) AS total, "
      "sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS prev "
      "FROM S3 WHERE orderYear = 2023 AND custName <> 'Bob' "
      "GROUP BY orderYear";
  auto lines = Lines(sql);
  EXPECT_EQ(Find(lines, "Filter"), lines.size());
  const size_t em = FindWith(lines, "expands=[sumRevenue");
  ASSERT_LT(em + 1, lines.size());
  EXPECT_NE(lines[em].text.find(
                "WHERE ((YEAR(orderDate) = 2023) AND (custName <> 'Bob'))"),
            std::string::npos)
      << lines[em].text;
  EXPECT_EQ(lines[em].text.find("NULL]"), std::string::npos);
  EXPECT_EQ(lines[em + 1].text, "Scan Orders");
  size_t projects = 0;
  for (size_t i = 0; i < em; ++i) {
    if (lines[i].text.rfind("Project", 0) != 0) continue;
    ++projects;
    EXPECT_EQ(lines[i].text.find("WHERE"), std::string::npos)
        << lines[i].text;
  }
  EXPECT_EQ(projects, 4u);  // the query's, S3's, S2's and S1's

  ResultSet rs = SameAsLiteral(sql);
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.Get(0, "r").int_val(), 14);  // 2023: 6 + 5 + 3
  EXPECT_EQ(rs.Get(0, "v").int_val(), 9);   // Bob's 5 filtered away
  EXPECT_EQ(rs.Get(0, "total").int_val(), 25);
  EXPECT_EQ(rs.Get(0, "prev").int_val(), 4);  // 2022: Bob's Happy order
}

TEST_F(PushdownTest, RaisingViewColumnBlocksTheMove) {
  // ER's q divides by zero on the order whose revenue is 6, which the
  // literal plan computes before any WHERE: the filter that would drop
  // that order must stay above the Project, so the error still surfaces.
  for (Engine* db : {&db_, literal_.get()}) {
    MustExecute(db,
                "CREATE VIEW ER AS SELECT *, SUM(revenue) AS MEASURE r, "
                "100 / (revenue - 6) AS q FROM Orders");
  }
  const std::string sql =
      "SELECT prodName, AGGREGATE(r) AS r FROM ER WHERE revenue <> 6 "
      "GROUP BY prodName";
  auto lines = Lines(sql);
  const size_t filter = Find(lines, "Filter (revenue <> 6)");
  ASSERT_LT(filter + 1, lines.size());
  EXPECT_EQ(lines[filter + 1].text.rfind("Project", 0), 0u);
  EXPECT_EQ(lines[filter + 1].text.find("WHERE"), std::string::npos);
  auto rewritten = db_.Query(sql);
  auto literal = literal_->Query(sql);
  ASSERT_FALSE(literal.ok());
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.status().ToString(), literal.status().ToString());
  EXPECT_NE(literal.status().message().find("division by zero"),
            std::string::npos);
}

TEST_F(PushdownTest, RowGrainVisibleReadsTheKeptRowsOwnSourceRow) {
  // A row-grain AT (VISIBLE) reads the source row the hidden row id names.
  // The pre-filtered Project keeps the scan's row index for each row it
  // keeps (0, 2, 4 for Happy; 3 for Whizz), not the kept rows' positions.
  for (const char* prod : {"Happy", "Whizz"}) {
    for (const char* exec : {"vectorized", "row"}) {
      const std::string sql = StrCat(
          "SELECT orderDate, revenue, r AT (VISIBLE) AS v, r AS rr FROM EO "
          "WHERE prodName = '",
          prod, "' ORDER BY orderDate");
      db_.options().exec_mode = std::string(exec) == "row"
                                    ? ExecMode::kRow
                                    : ExecMode::kVectorized;
      auto lines = Lines(sql);
      EXPECT_LT(FindWith(lines, "WHERE (prodName = "), lines.size());
      ResultSet rs = SameAsLiteral(sql);
      ASSERT_GT(rs.num_rows(), 0u);
      for (size_t i = 0; i < rs.num_rows(); ++i) {
        EXPECT_EQ(rs.Get(i, "v").int_val(), rs.Get(i, "revenue").int_val())
            << prod << " " << exec << " row " << i;
      }
    }
  }
}

TEST_F(PushdownTest, FilteredAndUnfilteredQueriesShareCacheEntries) {
  // The pre-filter leaves the measure's source plan as it was, so an
  // unfiltered query finds what a filtered one put in the shared cache.
  auto filtered = db_.Query(
      "SELECT prodName, r AT (ALL prodName) AS t FROM EO "
      "WHERE prodName = 'Happy' GROUP BY prodName");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_GT(filtered.value().stats()->shared_cache_misses, 0u);
  auto unfiltered = db_.Query(
      "SELECT prodName, r AT (ALL prodName) AS t FROM EO GROUP BY prodName");
  ASSERT_TRUE(unfiltered.ok()) << unfiltered.status().ToString();
  EXPECT_GT(unfiltered.value().stats()->shared_cache_hits, 0u);
  EXPECT_EQ(unfiltered.value().stats()->shared_cache_misses, 0u);
}

TEST_F(PushdownTest, NaiveStrategyKeepsTheLiteralPlan) {
  const std::string sql =
      "SELECT prodName, AGGREGATE(r) AS r FROM EO WHERE prodName = 'Happy' "
      "GROUP BY prodName";
  auto literal = literal_->Explain(sql);
  ASSERT_TRUE(literal.ok());
  const std::string& text = literal.value();
  const size_t filter = text.find("Filter (prodName = 'Happy')");
  ASSERT_NE(filter, std::string::npos) << text;
  EXPECT_LT(filter, text.find("Project [prodName, custName"));
  EXPECT_EQ(text.find("WHERE"), std::string::npos) << text;
  EXPECT_EQ(SameAsLiteral(sql).Get(0, "r").int_val(), 17);
}

TEST_F(PushdownTest, LeftJoinKeepsNullSupplyingConjunctsAbove) {
  const std::string sql =
      "SELECT o.prodName, o.revenue, c.custAge FROM Orders AS o "
      "LEFT JOIN Customers AS c ON o.custName = c.custName "
      "WHERE c.custAge > 20 AND o.revenue > 3 ORDER BY o.revenue";
  auto lines = Lines(sql);
  const size_t join = Find(lines, "Join LEFT");
  const size_t right = Find(lines, "Filter (custAge > 20)");
  const size_t left = Find(lines, "Filter (revenue > 3)");
  ASSERT_LT(right, lines.size());
  ASSERT_LT(left, lines.size());
  EXPECT_LT(right, join);  // the null-supplying side's conjunct stays above
  EXPECT_GT(left, join);   // the preserved side's conjunct moves below
  SameAsLiteral(sql);

  // The anti-join keeps its IS NULL test above the join.
  const std::string anti =
      "SELECT o.custName FROM Orders AS o LEFT JOIN Customers AS c "
      "ON o.custName = c.custName AND c.custAge > 30 "
      "WHERE c.custName IS NULL ORDER BY o.custName";
  auto anti_lines = Lines(anti);
  EXPECT_LT(Find(anti_lines, "Filter (custName IS NULL)"),
            Find(anti_lines, "Join LEFT"));
  EXPECT_EQ(SameAsLiteral(anti).num_rows(), 3u);  // Alice x2, Celia
}

TEST_F(PushdownTest, FullJoinMovesNothing) {
  const std::string sql =
      "SELECT o.prodName, c.custName FROM Orders AS o "
      "FULL JOIN Customers AS c ON o.custName = c.custName "
      "WHERE o.revenue > 3 AND c.custAge > 20 "
      "ORDER BY o.prodName, c.custName";
  auto lines = Lines(sql);
  const size_t join = Find(lines, "Join FULL");
  ASSERT_LT(join, lines.size());
  for (size_t i = join; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].text.rfind("Filter", 0), 0u) << lines[i].text;
  }
  SameAsLiteral(sql);
}

TEST_F(PushdownTest, RaisingAndSubqueryConjunctsStayAbove) {
  // A conjunct that could raise stays above the join, and so do its
  // neighbours: moving them would shrink the rows it sees and could hide
  // an error the literal plan reports.
  for (const std::string where :
       {"o.prodName = 'Happy' AND 100 / o.revenue > 1",
        "o.prodName = 'Happy' AND o.revenue > (SELECT MIN(x.revenue) "
        "FROM Orders AS x WHERE x.custName = o.custName)"}) {
    const std::string sql =
        "SELECT o.prodName, o.revenue, c.custAge FROM Orders AS o "
        "JOIN Customers AS c ON o.custName = c.custName WHERE " +
        where + " ORDER BY o.revenue";
    auto lines = Lines(sql);
    const size_t join = Find(lines, "Join INNER");
    ASSERT_LT(join, lines.size());
    EXPECT_LT(Find(lines, "Filter"), join) << sql;
    for (size_t i = join; i < lines.size(); ++i) {
      EXPECT_NE(lines[i].text.rfind("Filter", 0), 0u) << lines[i].text;
    }
    SameAsLiteral(sql);
  }
}

TEST_F(PushdownTest, NestedJoinsAndCrossJoinPushEachConjunctToItsInput) {
  const std::string sql =
      "SELECT o.prodName, c.custName, e.custName AS ec_name FROM Orders AS o "
      "JOIN Customers AS c ON o.custName = c.custName "
      "CROSS JOIN EC AS e WHERE o.revenue >= 5 AND c.custAge < 40 "
      "AND e.custAge > 20 AND o.cost < c.custAge "
      "ORDER BY o.prodName, c.custName, e.custName";
  auto lines = Lines(sql);
  const size_t outer = Find(lines, "Join CROSS");
  const size_t inner = Find(lines, "Join INNER");
  ASSERT_LT(outer, inner);
  EXPECT_GT(Find(lines, "Filter (revenue >= 5)"), inner);
  EXPECT_GT(Find(lines, "Filter (custAge < 40)"), inner);
  // Reads both inner inputs: lands above the inner join, below the cross.
  const size_t both = Find(lines, "Filter (cost < custAge)");
  EXPECT_GT(both, outer);
  EXPECT_LT(both, inner);
  // The cross join's right input is EC: the pre-filter of its defining
  // Project.
  const size_t ec = FindWith(lines, "WHERE (custAge > 20)");
  ASSERT_LT(ec, lines.size());
  EXPECT_NE(lines[ec].text.find("custCount := COUNT(*)"), std::string::npos);
  EXPECT_EQ(lines[ec + 1].text, "Scan Customers");
  EXPECT_GT(Find(lines, "Filter"), outer);  // nothing stays above it
  SameAsLiteral(sql);
}

}  // namespace
}  // namespace msql
