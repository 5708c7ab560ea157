// Observability overhead gate: the tracing/metrics layer must be (near)
// zero-cost when no trace sinks consume it. Times a measure-heavy
// read-only workload in four configurations:
//
//   baseline  tracing disabled (the default)       — reference
//   off2      tracing disabled, second leg          — gate comparand
//   ring      tracing on, ring-buffer sink only
//   slowlog   tracing on + slow-query log at threshold 0 (logs everything)
//
// Comparing two *disabled* legs bounds the measurement noise the gate
// tolerates; the <3% acceptance criterion applies to |baseline - off2|,
// i.e. the disabled path must be statistically indistinguishable from
// itself. The ring/slowlog rows quantify the cost of turning tracing on
// (informational, not gated). Each leg's per-round qps is paired with the
// baseline's same round (bench/harness.h), so the median of the per-round
// ratios cancels machine-wide drift and is stable to ~1% even when
// absolute round qps swings by 25%.

#include <cmath>
#include <cstdio>
#include <string>

#include "engine/engine.h"
#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

const char* const kWorkload[] = {
    "SELECT prodName, AGGREGATE(sumRevenue) AS rev FROM EO "
    "GROUP BY prodName ORDER BY prodName",
    "SELECT prodName, AGGREGATE(sumRevenue) * 1.0 / (sumRevenue AT (ALL)) "
    "AS share FROM EO GROUP BY prodName ORDER BY prodName",
    "SELECT custName, orderYear, AGGREGATE(margin) AS margin "
    "FROM EO GROUP BY custName, orderYear ORDER BY custName, orderYear",
};

// Queries/sec for `passes` full workload passes.
double TimeRound(Engine* db, int passes) {
  const double seconds = SecondsOf([&] {
    for (int p = 0; p < passes; ++p) {
      for (const char* sql : kWorkload) Check(db->Query(sql).status(), sql);
    }
  });
  return passes * static_cast<double>(std::size(kWorkload)) / seconds;
}

int Main(int argc, char** argv) {
  Harness h("obs_overhead", argc, argv, /*rounds=*/31, /*smoke_rounds=*/2,
            {{"rows", 4000, 500}, {"passes", 3, 2, /*settable=*/false}});
  const int rows = static_cast<int>(h.size("rows"));
  const int passes = static_cast<int>(h.size("passes"));

  // baseline / off2 / ring share ONE engine, toggling enable_tracing per
  // round: two engine instances with identical configs can genuinely
  // differ by a few percent from heap-layout luck alone, which would drown
  // the signal the gate looks for. Only slowlog needs its own engine (the
  // log sink is installed at construction).
  Engine main_db;
  LoadOrders(&main_db, rows, /*products=*/40, /*customers=*/100);
  const std::string slowlog_path = "bench_obs_overhead_slow.jsonl";
  EngineOptions slow_options;
  slow_options.enable_tracing = true;
  slow_options.slow_query_log_ms = 0;  // log every query: worst case
  slow_options.slow_query_log_path = slowlog_path;
  Engine slow_db(slow_options);
  LoadOrders(&slow_db, rows, /*products=*/40, /*customers=*/100);
  TimeRound(&main_db, 1);  // warmup, untimed
  TimeRound(&slow_db, 1);

  Comparison& c = h.Compare("measure-heavy workload", "qps");
  auto mode = [&](Engine* db, bool tracing) {
    return [=](Leg&) {
      db->options().enable_tracing = tracing;
      // Clear the shared cache so every round pays the same fills.
      db->shared_cache().Clear();
      return TimeRound(db, passes);
    };
  };
  c.Add("baseline", mode(&main_db, false));
  c.Add("off2", mode(&main_db, false));
  c.Add("ring", mode(&main_db, true));
  c.Add("slowlog", mode(&slow_db, true));
  c.Run(h.rounds());
  std::remove(slowlog_path.c_str());

  // Overhead of a mode = 1 - its paired qps ratio to the baseline.
  const double off2 = c.Ratio("off2_over_baseline", "off2", "baseline").median;
  c.Ratio("ring_over_baseline", "ring", "baseline");
  c.Ratio("slowlog_over_baseline", "slowlog", "baseline");
  const double disabled_pct = (1.0 - off2) * 100.0;
  std::printf("disabled-path delta: %+.2f%%\n", disabled_pct);
  h.Gate("|1 - off2_over_baseline| < 3%", std::fabs(disabled_pct) < 3.0);
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
