// Grouped-strategy speedup gate: a bare measure under GROUP BY produces
// one all-dimension context per group; the naive strategy (the literal
// evaluation) answers each with its own scan of the measure source
// (O(G x R) row visits), while the grouped strategy partitions the source
// ONCE into a key->value table keyed on the dimension tuple and answers
// every context with an O(1) lookup (O(R + G)). See docs/PERFORMANCE.md.
//
// Times the two strategies on the same engine, one paired comparison
// (bench/harness.h). The shared measure cache is cleared before every
// timed query so each run pays the full cold-cache evaluation the
// strategies actually differ on.
//
// A second pair of legs times the execution modes: the same grouped
// strategy with ExecMode::kVectorized vs ExecMode::kRow on a plain
// aggregation over the 100k-row table, where the row leg pays per-row
// expression interpretation (frame setup, Value construction, dynamic
// dispatch) that the vectorized leg replaces with typed column loops
// (exec/vector_eval.cc, docs/PERFORMANCE.md).
//
// Gates (full runs only), both on the 100-group x 100k-row workload and
// on the median of the per-round qps ratios: grouped must be >= 5x faster
// than naive, and vectorized must be >= 10x faster than row. Also
// reports, without a gate, the grouped measure query's qps over the plain
// aggregation's (the paper's section 5.1 argument: a measure query should
// cost about what its plain-SQL twin costs).

#include "engine/engine.h"
#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

// Two bare measures per product group: 2 x `products` all-dimension
// contexts, all sharing one context shape, over one measure source.
const char* const kGroupedQuery =
    "SELECT prodName, sumRevenue AS rev, orderCount AS cnt "
    "FROM EO GROUP BY prodName ORDER BY prodName";

// Plain-SQL aggregation for the execution-mode legs: no measure machinery,
// so the timed work is exactly what the exec modes differ on (scan,
// group-key eval, accumulation over 100k rows).
const char* const kAggQuery =
    "SELECT prodName, SUM(revenue) AS rev, COUNT(*) AS cnt, "
    "AVG(revenue) AS avg_rev, MIN(revenue) AS lo, MAX(revenue) AS hi "
    "FROM Orders GROUP BY prodName ORDER BY prodName";

// Queries/sec of one cold-cache execution of `query` under `strategy` and
// `mode`, recording its evaluation counters on `leg`.
double TimeQuery(Engine* db, const char* query, MeasureStrategy strategy,
                 ExecMode mode, Leg& leg) {
  db->options().measure_strategy = strategy;
  db->options().exec_mode = mode;
  ResultSet rs;
  const double ms = TimeQueryMs(db, query, &rs);
  if (const auto& stats = rs.stats(); stats != nullptr) {
    leg.Counter("source_scans",
                static_cast<double>(stats->measure_source_scans));
    leg.Counter("grouped_builds",
                static_cast<double>(stats->measure_grouped_builds));
    leg.Counter("grouped_probes",
                static_cast<double>(stats->measure_grouped_probes));
    leg.Counter("vectorized_batches",
                static_cast<double>(stats->exec_vectorized_batches));
    leg.Counter("row_fallbacks",
                static_cast<double>(stats->exec_row_fallbacks));
  }
  return 1000.0 / ms;
}

int Main(int argc, char** argv) {
  Harness h("grouped_strategy", argc, argv, /*rounds=*/7, /*smoke_rounds=*/2,
            {{"rows", 100000, 2000}, {"groups", 100, 20, /*settable=*/false}});
  Engine db;
  LoadOrders(&db, static_cast<int>(h.size("rows")),
             /*products=*/static_cast<int>(h.size("groups")),
             /*customers=*/100);
  {  // warmup, untimed
    Leg scratch;
    TimeQuery(&db, kGroupedQuery, MeasureStrategy::kGrouped,
              ExecMode::kVectorized, scratch);
    TimeQuery(&db, kAggQuery, MeasureStrategy::kGrouped,
              ExecMode::kVectorized, scratch);
  }

  using enum MeasureStrategy;
  using enum ExecMode;
  Comparison& c = h.Compare("cold-cache queries", "qps");
  c.Add("naive", [&](Leg& leg) {
    return TimeQuery(&db, kGroupedQuery, kNaive, kVectorized, leg);
  });
  c.Add("grouped", [&](Leg& leg) {
    return TimeQuery(&db, kGroupedQuery, kGrouped, kVectorized, leg);
  });
  // Execution-mode pair: same strategy, same plain-SQL aggregation, the
  // interpreter flipped between row-at-a-time and vectorized.
  c.Add("plain_row", [&](Leg& leg) {
    return TimeQuery(&db, kAggQuery, kGrouped, kRow, leg);
  });
  c.Add("plain_vectorized", [&](Leg& leg) {
    return TimeQuery(&db, kAggQuery, kGrouped, kVectorized, leg);
  });
  c.Run(h.rounds());

  h.Gate("grouped_over_naive >= 5",
         c.Ratio("grouped_over_naive", "grouped", "naive").median >= 5.0);
  h.Gate("vectorized_over_row >= 10",
         c.Ratio("vectorized_over_row", "plain_vectorized", "plain_row")
                 .median >= 10.0);
  // 1.0 = plain-SQL cost; ROADMAP aim 1 targets >= 0.5. No gate.
  c.Ratio("measure_over_plain", "grouped", "plain_vectorized");
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
