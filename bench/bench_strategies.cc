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
// Emits BENCH_strategies.json (bench_reporter.h).
//
// Args: {rows, products}.

#include "bench_reporter.h"
#include "benchmark/benchmark.h"
#include "workload.h"

namespace {

using msql::Engine;
using msql::EngineOptions;
using msql::MeasureStrategy;
using msql::ResultSet;
using msql::bench::CheckResult;
using msql::bench::LoadOrders;

// Every product row evaluates the same per-product context repeatedly: the
// query compares each group's revenue to its own product total and to the
// grand total.
const char* kMeasureQuery = R"sql(
  SELECT prodName, orderYear,
         AGGREGATE(sumRevenue) AS rev,
         sumRevenue AT (ALL orderYear) AS product_total,
         sumRevenue AT (ALL) AS grand_total
  FROM EO
  GROUP BY prodName, orderYear
)sql";

void RunWithStrategy(benchmark::State& state, MeasureStrategy strategy) {
  EngineOptions options;
  options.measure_strategy = strategy;
  Engine db(options);
  LoadOrders(&db, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(1)), /*customers=*/50);
  std::shared_ptr<const msql::QueryStats> stats;
  for (auto _ : state) {
    ResultSet rs = CheckResult(db.Query(kMeasureQuery), "query");
    stats = rs.stats();
    benchmark::DoNotOptimize(rs);
  }
  state.counters["measure_evals"] =
      static_cast<double>(stats == nullptr ? 0 : stats->measure_evals);
  state.counters["cache_hits"] =
      static_cast<double>(stats == nullptr ? 0 : stats->measure_cache_hits);
  state.counters["source_scans"] =
      static_cast<double>(stats == nullptr ? 0 : stats->measure_source_scans);
  state.counters["grouped_probes"] =
      static_cast<double>(stats == nullptr ? 0 : stats->measure_grouped_probes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StrategyNaive(benchmark::State& state) {
  RunWithStrategy(state, MeasureStrategy::kNaive);
}
void BM_StrategyGrouped(benchmark::State& state) {
  RunWithStrategy(state, MeasureStrategy::kGrouped);
}

// The section 6.4 inline fast path on the AGGREGATE-only query (the
// overwhelmingly common BI shape): by default each group's measure is
// computed over exactly its own rows, no source scan at all; kNaive scans
// the source once per group.
void RunAggregateOnly(benchmark::State& state, MeasureStrategy strategy) {
  EngineOptions options;
  options.measure_strategy = strategy;
  Engine db(options);
  LoadOrders(&db, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(1)), /*customers=*/50);
  const char* query =
      "SELECT prodName, AGGREGATE(sumRevenue) AS rev, "
      "AGGREGATE(margin) AS margin FROM EO GROUP BY prodName";
  std::shared_ptr<const msql::QueryStats> stats;
  for (auto _ : state) {
    ResultSet rs = CheckResult(db.Query(query), "aggregate-only query");
    stats = rs.stats();
    benchmark::DoNotOptimize(rs);
  }
  state.counters["source_scans"] =
      static_cast<double>(stats == nullptr ? 0 : stats->measure_source_scans);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_AggregateInlineFastpath(benchmark::State& state) {
  RunAggregateOnly(state, MeasureStrategy::kGrouped);
}
void BM_AggregateContextScan(benchmark::State& state) {
  RunAggregateOnly(state, MeasureStrategy::kNaive);
}

void BM_StrategyExpandedSql(benchmark::State& state) {
  Engine db;
  LoadOrders(&db, static_cast<int>(state.range(0)),
             static_cast<int>(state.range(1)), /*customers=*/50);
  std::string expanded =
      CheckResult(db.ExpandSql(kMeasureQuery), "expansion of strategy query");
  std::shared_ptr<const msql::QueryStats> stats;
  for (auto _ : state) {
    ResultSet rs = CheckResult(db.Query(expanded), "expanded query");
    stats = rs.stats();
    benchmark::DoNotOptimize(rs);
  }
  state.counters["subq_execs"] =
      static_cast<double>(stats == nullptr ? 0 : stats->subquery_execs);
  state.counters["subq_hits"] =
      static_cast<double>(stats == nullptr ? 0 : stats->subquery_cache_hits);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

#define SIZES                                                 \
  Args({2000, 16})->Args({2000, 256})->Args({16000, 16})      \
      ->Args({16000, 256})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_StrategyNaive)->SIZES;
BENCHMARK(BM_StrategyGrouped)->SIZES;
BENCHMARK(BM_StrategyExpandedSql)->SIZES;
BENCHMARK(BM_AggregateInlineFastpath)->SIZES;
BENCHMARK(BM_AggregateContextScan)->SIZES;

}  // namespace

MSQL_BENCH_REPORTER_MAIN("strategies")
