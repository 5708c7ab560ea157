// Cost of each AT context modifier (paper table 3) at a grouped call site,
// relative to the bare measure. The shape claim: with memoization, ALL/SET
// contexts that repeat across groups cost O(1) probes after the first
// evaluation; WHERE contexts with per-group correlations cost one source
// selection per group; VISIBLE additionally collects the group's row ids.
//
// Sizes: {rows, products}.

#include <string>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

struct Modifier {
  const char* name;
  const char* select_item;
};
constexpr Modifier kModifiers[] = {
    {"bare_measure", "sumRevenue"},
    {"aggregate", "AGGREGATE(sumRevenue)"},
    {"visible", "sumRevenue AT (VISIBLE)"},
    {"all_dim", "sumRevenue AT (ALL prodName)"},
    {"all_everything", "sumRevenue AT (ALL)"},
    {"set_constant", "sumRevenue AT (SET prodName = 'P0')"},
    {"set_current", "sumRevenue AT (SET orderYear = CURRENT orderYear - 1)"},
    {"where_modifier", "sumRevenue AT (WHERE revenue > 250)"},
    {"share_of_total", "sumRevenue * 1.0 / sumRevenue AT (ALL prodName)"},
};

constexpr OrdersSize kSizes[] = {{4000, 16}, {4000, 256}, {32000, 256}};

int Main(int argc, char** argv) {
  Harness h("at_modifiers", argc, argv, /*rounds=*/5, /*smoke_rounds=*/1);
  for (const OrdersSize& s : h.Sweep(kSizes)) {
    Engine db;
    LoadOrders(&db, s.rows, s.products, /*customers=*/50);
    Comparison& c = h.Compare(s.Name(), "ms");
    for (const Modifier& m : kModifiers) {
      c.Add(m.name, [&db, query = std::string("SELECT prodName, ") +
                                  m.select_item +
                                  " AS v FROM EO GROUP BY prodName"](Leg& leg) {
        ResultSet rs;
        const double ms = TimeQueryMs(&db, query, &rs);
        const QueryStats* stats = rs.stats().get();
        leg.Counter("source_scans", stats ? stats->measure_source_scans : 0);
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
