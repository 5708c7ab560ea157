// Resource-governor overhead: the same scan/filter/group/measure workload
// with the guard effectively idle (no limits set — the default) versus
// armed with generous, never-tripping limits. The claim: the per-row
// Check() / ChargeRows() hot path costs under ~2%, so guard rails are safe
// to leave on in production. Reported as the median of the per-round
// paired ratios armed/unlimited; no gate.
//
// Sizes: {rows, products}.

#include <cstdint>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

// A mix that exercises every guarded loop: base scan, filter, aggregation
// with grouping, measure evaluation with AT modifiers, sort.
const char* const kWorkloadQuery = R"sql(
  SELECT prodName, orderYear,
         AGGREGATE(sumRevenue) AS rev,
         sumRevenue AT (ALL) AS grand_total
  FROM EO
  WHERE revenue > 10
  GROUP BY prodName, orderYear
  ORDER BY prodName, orderYear
)sql";

int Main(int argc, char** argv) {
  Harness h("guard_overhead", argc, argv, /*rounds=*/15, /*smoke_rounds=*/1,
            {{"rows", 20000, 20000, /*settable=*/false},
             {"products", 50, 50, /*settable=*/false}});
  const int rows = static_cast<int>(h.size("rows"));
  const int products = static_cast<int>(h.size("products"));

  // Baseline: default options — no limits, guard checks reduce to their
  // cheapest form.
  Engine unlimited;
  LoadOrders(&unlimited, rows, products, /*customers=*/50);
  // All guard rails on, set high enough that nothing ever trips: measures
  // the full Check()/ChargeRows() bookkeeping cost.
  EngineOptions options;
  options.timeout_ms = 10 * 60 * 1000;
  options.max_memory_bytes = uint64_t{64} << 30;
  options.max_result_rows = uint64_t{1} << 40;
  Engine armed(options);
  LoadOrders(&armed, rows, products, /*customers=*/50);

  auto leg_on = [](Engine* db) {
    return [db](Leg& leg) {
      ResultSet rs;
      const double ms = TimeQueryMs(db, kWorkloadQuery, &rs);
      const QueryStats* stats = rs.stats().get();
      leg.Counter("rows_charged", stats ? stats->rows_charged : 0);
      return ms;
    };
  };
  Comparison& c = h.Compare("guarded workload", "ms");
  c.Add("unlimited", leg_on(&unlimited));
  c.Add("armed", leg_on(&armed));
  c.Run(h.rounds());
  c.Ratio("armed_over_unlimited", "armed", "unlimited");
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
