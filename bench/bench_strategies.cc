// Paper section 5.1 ("localized self-join"): measure evaluation strategies.
//   * naive      — the literal evaluation: every evaluation re-scans the
//                  measure source;
//   * grouped    — the default: all-dimension contexts share one value
//                  table per shape, repeated contexts hit the per-context
//                  memo (docs/PERFORMANCE.md; bench_grouped_strategy holds
//                  the dedicated speedup gate);
//   * expanded   — the section 4.2 rewrite executed as plain SQL with
//                  correlated scalar subqueries (subquery memoization on).
// The shape claim: grouped ≪ naive as soon as a context repeats, and the
// measure engine matches the expanded form without any textual rewriting.
//
// One engine per strategy; each leg runs its query once per round over an
// empty shared cache (TimeQueryMs), so no leg reads another's values.
//
// Sizes: {rows, products}.

#include <memory>
#include <string>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

// Every product row evaluates the same per-product context repeatedly: the
// query compares each group's revenue to its own product total and to the
// grand total.
const char* const kMeasureQuery = R"sql(
  SELECT prodName, orderYear,
         AGGREGATE(sumRevenue) AS rev,
         sumRevenue AT (ALL orderYear) AS product_total,
         sumRevenue AT (ALL) AS grand_total
  FROM EO
  GROUP BY prodName, orderYear
)sql";

// The section 6.4 inline fast path on the AGGREGATE-only query (the
// overwhelmingly common BI shape): by default each group's measure is
// computed over exactly its own rows, no source scan at all; kNaive scans
// the source once per group.
const char* const kAggregateOnlyQuery =
    "SELECT prodName, AGGREGATE(sumRevenue) AS rev, "
    "AGGREGATE(margin) AS margin FROM EO GROUP BY prodName";

constexpr OrdersSize kSizes[] = {
    {2000, 16}, {2000, 256}, {16000, 16}, {16000, 256}};

// An engine under `strategy` holding the Orders workload.
std::unique_ptr<Engine> Load(MeasureStrategy strategy, const OrdersSize& s) {
  EngineOptions options;
  options.measure_strategy = strategy;
  auto db = std::make_unique<Engine>(options);
  LoadOrders(db.get(), s.rows, s.products, /*customers=*/50);
  return db;
}

int Main(int argc, char** argv) {
  Harness h("strategies", argc, argv, /*rounds=*/5, /*smoke_rounds=*/1);
  for (const OrdersSize& s : h.Sweep(kSizes)) {
    using enum MeasureStrategy;
    auto naive = Load(kNaive, s);
    auto grouped = Load(kGrouped, s);
    const std::string expanded = CheckResult(
        grouped->ExpandSql(kMeasureQuery), "expansion of strategy query");

    // One execution of `sql` on `db`, in ms, with its measure counters.
    auto measure_leg = [](Engine* db, const char* sql) {
      return [db, sql](Leg& leg) {
        ResultSet rs;
        const double ms = TimeQueryMs(db, sql, &rs);
        const QueryStats* stats = rs.stats().get();
        leg.Counter("measure_evals", stats ? stats->measure_evals : 0);
        leg.Counter("cache_hits", stats ? stats->measure_cache_hits : 0);
        leg.Counter("source_scans", stats ? stats->measure_source_scans : 0);
        leg.Counter("grouped_probes",
                    stats ? stats->measure_grouped_probes : 0);
        return ms;
      };
    };
    Comparison& c = h.Compare(s.Name(), "ms");
    c.Add("naive", measure_leg(naive.get(), kMeasureQuery));
    c.Add("grouped", measure_leg(grouped.get(), kMeasureQuery));
    c.Add("expanded", [&](Leg& leg) {
      ResultSet rs;
      const double ms = TimeQueryMs(grouped.get(), expanded, &rs);
      const QueryStats* stats = rs.stats().get();
      leg.Counter("subq_execs", stats ? stats->subquery_execs : 0);
      leg.Counter("subq_hits", stats ? stats->subquery_cache_hits : 0);
      return ms;
    });
    c.Add("aggregate_inline", measure_leg(grouped.get(), kAggregateOnlyQuery));
    c.Add("aggregate_scan", measure_leg(naive.get(), kAggregateOnlyQuery));
    c.Run(h.rounds());
    c.Ratio("naive_over_grouped", "naive", "grouped");
    c.Ratio("expanded_over_grouped", "expanded", "grouped");
    c.Ratio("scan_over_inline", "aggregate_scan", "aggregate_inline");
  }
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
