// Grouped-strategy speedup gate: a bare measure under GROUP BY produces
// one all-dimension context per group; the naive strategy (the literal
// evaluation) answers each with its own scan of the measure source
// (O(G x R) row visits), while the grouped strategy partitions the source
// ONCE into a key->value table keyed on the dimension tuple and answers
// every context with an O(1) lookup (O(R + G)). See docs/PERFORMANCE.md.
//
// Times the two strategies on the same engine with rounds interleaved
// round-robin (machine-wide drift cancels out of the paired ratio, the
// same trick as bench_obs_overhead). The shared measure cache is cleared
// before every timed query so each run pays the full cold-cache evaluation
// the strategies actually differ on.
//
// A second pair of legs times the execution modes: the same grouped
// strategy with ExecMode::kVectorized vs ExecMode::kRow on a plain
// aggregation over the 100k-row table, where the row leg pays per-row
// expression interpretation (frame setup, Value construction, dynamic
// dispatch) that the vectorized leg replaces with typed column loops
// (exec/vector_eval.cc, docs/PERFORMANCE.md).
//
// Gates (full runs only), both on the 100-group x 100k-row workload:
// grouped must be >= 5x faster than naive, and vectorized must be
// >= 10x faster than row. Also reports, without a gate, the grouped
// measure query's qps over the plain aggregation's, paired per round (the
// paper's section 5.1 argument: a measure query should cost about what
// its plain-SQL twin costs). Emits BENCH_grouped_strategy.json.
//
// Own-main bench: the interleaved round structure and the process-exit
// gate do not fit the per-iteration google-benchmark model. `--smoke` or
// any --benchmark* flag shrinks the run and skips the gate.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "json_writer.h"
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

struct StrategyResult {
  std::string name;
  std::string exec_mode;
  double median_qps = 0;
  double best_qps = 0;
  uint64_t source_scans = 0;
  uint64_t grouped_builds = 0;
  uint64_t grouped_probes = 0;
  uint64_t parallel_tasks = 0;
  uint64_t vectorized_batches = 0;
  uint64_t row_fallbacks = 0;
  std::vector<double> round_qps;
};

// Queries/sec for `passes` cold-cache executions of `query`, recording the
// last run's evaluation counters into `res`.
double TimeRound(Engine* db, const char* query, int passes,
                 StrategyResult* res) {
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    db->shared_cache().Clear();
    ResultSet rs = CheckResult(db->Query(query), "grouped workload");
    if (const auto& stats = rs.stats(); stats != nullptr) {
      res->source_scans = stats->measure_source_scans;
      res->grouped_builds = stats->measure_grouped_builds;
      res->grouped_probes = stats->measure_grouped_probes;
      res->parallel_tasks = stats->measure_parallel_tasks;
      res->vectorized_batches = stats->exec_vectorized_batches;
      res->row_fallbacks = stats->exec_row_fallbacks;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return passes / elapsed.count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median of the per-round fast/slow qps ratios. Rounds are paired in
// time, so the ratio cancels drift that absolute medians would not.
double PairedSpeedup(const StrategyResult& slow, const StrategyResult& fast) {
  std::vector<double> ratios;
  for (size_t i = 0; i < slow.round_qps.size(); ++i) {
    if (slow.round_qps[i] > 0) {
      ratios.push_back(fast.round_qps[i] / slow.round_qps[i]);
    }
  }
  return Median(ratios);
}

int Main(int argc, char** argv) {
  int rows = 100000;
  int groups = 100;
  int rounds = 7;
  int passes = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strncmp(argv[i], "--benchmark", 11) == 0) {
      smoke = true;
    }
    if (std::strncmp(argv[i], "--rows=", 7) == 0) rows = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--rounds=", 9) == 0)
      rounds = std::atoi(argv[i] + 9);
  }
  if (smoke) {
    rows = std::min(rows, 2000);
    groups = 20;
    rounds = 2;
  }

  Engine db;
  LoadOrders(&db, rows, /*products=*/groups, /*customers=*/100);

  StrategyResult naive{.name = "naive", .exec_mode = "vectorized"};
  StrategyResult grouped{.name = "grouped", .exec_mode = "vectorized"};
  StrategyResult row_exec{.name = "grouped", .exec_mode = "row"};
  StrategyResult vec_exec{.name = "grouped", .exec_mode = "vectorized"};
  {  // warmup, untimed
    StrategyResult scratch;
    db.options().measure_strategy = MeasureStrategy::kGrouped;
    TimeRound(&db, kGroupedQuery, 1, &scratch);
    TimeRound(&db, kAggQuery, 1, &scratch);
  }
  for (int r = 0; r < rounds; ++r) {
    db.options().exec_mode = ExecMode::kVectorized;
    db.options().measure_strategy = MeasureStrategy::kNaive;
    naive.round_qps.push_back(TimeRound(&db, kGroupedQuery, passes, &naive));
    db.options().measure_strategy = MeasureStrategy::kGrouped;
    grouped.round_qps.push_back(TimeRound(&db, kGroupedQuery, passes, &grouped));
    // Execution-mode pair: same strategy, same plain-SQL aggregation, the
    // interpreter flipped between row-at-a-time and vectorized.
    db.options().exec_mode = ExecMode::kRow;
    row_exec.round_qps.push_back(TimeRound(&db, kAggQuery, passes, &row_exec));
    db.options().exec_mode = ExecMode::kVectorized;
    vec_exec.round_qps.push_back(TimeRound(&db, kAggQuery, passes, &vec_exec));
  }
  for (StrategyResult* res : {&naive, &grouped, &row_exec, &vec_exec}) {
    res->median_qps = Median(res->round_qps);
    res->best_qps =
        *std::max_element(res->round_qps.begin(), res->round_qps.end());
    std::printf(
        "%-9s/%-10s best %8.2f qps  median %8.2f qps  "
        "(scans=%llu builds=%llu probes=%llu parallel_tasks=%llu "
        "batches=%llu fallbacks=%llu)\n",
        res->name.c_str(), res->exec_mode.c_str(), res->best_qps,
        res->median_qps, static_cast<unsigned long long>(res->source_scans),
        static_cast<unsigned long long>(res->grouped_builds),
        static_cast<unsigned long long>(res->grouped_probes),
        static_cast<unsigned long long>(res->parallel_tasks),
        static_cast<unsigned long long>(res->vectorized_batches),
        static_cast<unsigned long long>(res->row_fallbacks));
  }

  const double speedup = PairedSpeedup(naive, grouped);
  std::printf("grouped speedup over naive: %.2fx "
              "(gate: >= 5x on the full run)\n",
              speedup);
  const double vec_speedup = PairedSpeedup(row_exec, vec_exec);
  std::printf("vectorized speedup over row: %.2fx "
              "(gate: >= 10x on the full run)\n",
              vec_speedup);
  // Cold grouped-measure query vs the vectorized plain aggregation over the
  // same rows, as the median of per-round qps ratios (1.0 = plain-SQL
  // cost). Both legs run in every round, so the pairing cancels the drift
  // that a ratio of the two medians would carry.
  const double measure_over_plain = PairedSpeedup(vec_exec, grouped);
  std::printf("grouped measure / plain aggregation, paired: %.2fx "
              "(ratio of medians %.2fx; no gate)\n",
              measure_over_plain, grouped.median_qps / vec_exec.median_qps);

  std::ofstream out("BENCH_grouped_strategy.json");
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("grouped_strategy");
  w.Key("rows");
  w.Int(rows);
  w.Key("groups");
  w.Int(groups);
  w.Key("rounds");
  w.Int(rounds);
  w.Key("smoke");
  w.Bool(smoke);
  w.Key("strategies");
  w.BeginArray();
  for (const StrategyResult* res : {&naive, &grouped, &row_exec, &vec_exec}) {
    w.BeginObject();
    w.Key("strategy");
    w.String(res->name);
    w.Key("exec_mode");
    w.String(res->exec_mode);
    w.Key("best_qps");
    w.Double(res->best_qps);
    w.Key("median_qps");
    w.Double(res->median_qps);
    w.Key("source_scans");
    w.Int(static_cast<int64_t>(res->source_scans));
    w.Key("grouped_builds");
    w.Int(static_cast<int64_t>(res->grouped_builds));
    w.Key("grouped_probes");
    w.Int(static_cast<int64_t>(res->grouped_probes));
    w.Key("parallel_tasks");
    w.Int(static_cast<int64_t>(res->parallel_tasks));
    w.Key("vectorized_batches");
    w.Int(static_cast<int64_t>(res->vectorized_batches));
    w.Key("row_fallbacks");
    w.Int(static_cast<int64_t>(res->row_fallbacks));
    w.Key("round_qps");
    w.BeginArray();
    for (double q : res->round_qps) w.Double(q);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("speedup");
  w.Double(speedup);
  w.Key("gate_speedup");
  w.Double(5.0);
  w.Key("vec_speedup");
  w.Double(vec_speedup);
  w.Key("gate_vec_speedup");
  w.Double(10.0);
  w.Key("measure_over_plain");
  w.Double(measure_over_plain);
  w.EndObject();
  out << "\n";
  std::printf("wrote BENCH_grouped_strategy.json\n");

  if (!smoke && speedup < 5.0) {
    std::fprintf(stderr,
                 "GATE FAILED: grouped speedup %.2fx is below the 5x gate\n",
                 speedup);
    return 1;
  }
  if (!smoke && vec_speedup < 10.0) {
    std::fprintf(stderr,
                 "GATE FAILED: vectorized speedup %.2fx is below the 10x gate\n",
                 vec_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
