// Grouping sets with measures: cost of ROLLUP / CUBE subtotal reports when
// each grouping set evaluates measures in its own contexts. Shape claim:
// cost grows with the number of grouping sets, and the memoized strategy
// reuses coarse contexts across sets (the grand total is computed once).
//
// Sizes: {rows}.

#include <string>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

struct Grouping {
  const char* name;
  const char* clause;
};
constexpr Grouping kGroupings[] = {
    {"plain_group_by", "prodName, custName, orderYear"},
    {"rollup3", "ROLLUP(prodName, custName, orderYear)"},
    {"cube3", "CUBE(prodName, custName, orderYear)"},
    {"grouping_sets",
     "GROUPING SETS ((prodName), (custName), (orderYear), ())"},
};

constexpr int kRows[] = {2000, 16000};

int Main(int argc, char** argv) {
  Harness h("rollup", argc, argv, /*rounds=*/5, /*smoke_rounds=*/1);
  for (const int rows : h.Sweep(kRows)) {
    Engine db;
    LoadOrders(&db, rows, /*products=*/24, /*customers=*/12);
    Comparison& c = h.Compare("rows=" + std::to_string(rows), "ms");
    for (const Grouping& g : kGroupings) {
      c.Add(g.name,
            [&db, query = std::string("SELECT prodName, custName, orderYear, "
                                      "AGGREGATE(sumRevenue) AS rev "
                                      "FROM EO GROUP BY ") +
                          g.clause](Leg& leg) {
              ResultSet rs;
              const double ms = TimeQueryMs(&db, query, &rs);
              const QueryStats* stats = rs.stats().get();
              leg.Counter("out_rows", static_cast<double>(rs.num_rows()));
              leg.Counter("source_scans",
                          stats ? stats->measure_source_scans : 0);
              return ms;
            });
    }
    c.Run(h.rounds());
  }
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
