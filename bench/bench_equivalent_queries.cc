// Paper listing 12 / section 5.1: four semantically equivalent formulations
// of "orders with revenue above their product's average" — correlated
// subquery, self-join, window aggregate, and measure. The shape claim: the
// window and measure forms scan Orders once; the correlated-subquery form is
// only competitive with result memoization (the WinMagic observation); the
// self-join pays a second scan plus the join. A correctness check (every
// run, exit 1 on failure) asserts the four return the same row count.
//
// Sizes: {rows, products}.

#include <string>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

const char* const kCorrelatedSubquery = R"sql(
  SELECT o.prodName, o.orderDate
  FROM Orders AS o
  WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
                     WHERE o1.prodName = o.prodName)
)sql";

const char* const kSelfJoin = R"sql(
  SELECT o.prodName, o.orderDate
  FROM Orders AS o
  LEFT JOIN (SELECT prodName, AVG(revenue) AS avgRevenue
             FROM Orders GROUP BY prodName) AS o2
    ON o.prodName = o2.prodName
  WHERE o.revenue > o2.avgRevenue
)sql";

const char* const kWindowAggregate = R"sql(
  SELECT o.prodName, o.orderDate
  FROM (SELECT prodName, revenue, orderDate,
               AVG(revenue) OVER (PARTITION BY prodName) AS avgRevenue
        FROM Orders) AS o
  WHERE o.revenue > o.avgRevenue
)sql";

const char* const kMeasure = R"sql(
  SELECT o.prodName, o.orderDate
  FROM (SELECT prodName, orderDate, revenue,
               AVG(revenue) AS MEASURE avgRevenue FROM Orders) AS o
  WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
)sql";

struct Formulation {
  const char* name;
  const char* sql;
};
constexpr Formulation kFormulations[] = {
    {"correlated_subquery", kCorrelatedSubquery},
    {"self_join", kSelfJoin},
    {"window_aggregate", kWindowAggregate},
    {"measure", kMeasure},
};

constexpr OrdersSize kSizes[] = {
    {1000, 10}, {1000, 100}, {8000, 10}, {8000, 100}, {32000, 100}};

int Main(int argc, char** argv) {
  Harness h("equivalent_queries", argc, argv, /*rounds=*/5,
            /*smoke_rounds=*/1);
  {
    Engine db;
    LoadOrders(&db, 2000, 20, 50);
    const size_t n =
        CheckResult(db.Query(kCorrelatedSubquery), "q1").num_rows();
    bool agree = true;
    for (const Formulation& f : kFormulations) {
      const size_t m = CheckResult(db.Query(f.sql), f.name).num_rows();
      std::printf("%s: %zu rows above their product's average\n", f.name, m);
      agree = agree && m == n;
    }
    h.Check("the four formulations return the same row count", agree);
  }
  for (const OrdersSize& s : h.Sweep(kSizes)) {
    Engine db;
    LoadOrders(&db, s.rows, s.products, /*customers=*/50);
    Comparison& c = h.Compare(s.Name(), "ms");
    for (const Formulation& f : kFormulations) {
      c.Add(f.name, [&db, &f](Leg& leg) {
        ResultSet rs;
        const double ms = TimeQueryMs(&db, f.sql, &rs);
        const QueryStats* stats = rs.stats().get();
        leg.Counter("result_rows", static_cast<double>(rs.num_rows()));
        leg.Counter("subq_execs", stats ? stats->subquery_execs : 0);
        leg.Counter("measure_scans", stats ? stats->measure_source_scans : 0);
        return ms;
      });
    }
    c.Run(h.rounds());
    // ROADMAP item 4's baseline: the per-row measure form against its
    // window twin.
    c.Ratio("measure_over_window", "measure", "window_aggregate");
  }
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
