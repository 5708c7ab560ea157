// Concurrency benchmark: queries/sec for a read-only paper-listing
// workload at 1/2/4/8 sessions, with a cold and a warm shared measure
// cache. Each (sessions, cache) cell is one leg of a comparison
// (bench/harness.h), timed over every round, so a cell reports the median
// and quartiles of many short timed regions instead of one.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "runtime/session.h"
#include "workload.h"

namespace msql::bench {
namespace {

// Measure-heavy read-only shapes from the paper's listings: grand-total
// ratios, AT (ALL dim), year-over-year AT (SET ...) and a plain grouped
// AGGREGATE. The first three force per-context source evaluations, which
// is exactly the work the shared cache elides when warm.
const char* const kWorkload[] = {
    "SELECT prodName, AGGREGATE(sumRevenue) * 1.0 / (sumRevenue AT (ALL)) "
    "AS share FROM EO GROUP BY prodName ORDER BY prodName",
    "SELECT prodName, orderYear, AGGREGATE(sumRevenue) AS rev, "
    "sumRevenue AT (ALL orderYear) AS product_total "
    "FROM EO GROUP BY prodName, orderYear ORDER BY prodName, orderYear",
    "SELECT custName, orderYear, AGGREGATE(sumRevenue) AS rev, "
    "AGGREGATE(sumRevenue AT (SET orderYear = orderYear - 1)) AS prev "
    "FROM EO GROUP BY custName, orderYear ORDER BY custName, orderYear",
    "SELECT custName, orderYear, AGGREGATE(margin) AS margin, "
    "sumRevenue AT (ALL orderYear) AS cust_total "
    "FROM EO GROUP BY custName, orderYear ORDER BY custName, orderYear",
};
constexpr int kWorkloadSize = static_cast<int>(std::size(kWorkload));

// A cold cell runs the workload once per session after clearing the
// shared cache, so the fills are part of its cost; a warm cell runs it
// this many times over the cache some earlier leg filled.
constexpr int kWarmPasses = 3;

// Runs the whole workload `passes` times on each of `n` concurrent
// sessions and returns the aggregate queries/sec.
double TimeCell(Engine* db, int n, int passes) {
  std::vector<SessionPtr> sessions;
  sessions.reserve(n);
  for (int i = 0; i < n; ++i) sessions.push_back(db->CreateSession());

  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int p = 0; p < passes; ++p) {
        for (int q = 0; q < kWorkloadSize; ++q) {
          // Stagger starting offsets so sessions are not in lockstep.
          auto r = sessions[i]->Query(kWorkload[(q + i) % kWorkloadSize]);
          if (!r.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const double seconds = SecondsOf([&] {
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
  });
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_concurrency: %d queries failed\n",
                 failures.load());
    std::abort();
  }
  return n * passes * kWorkloadSize / seconds;
}

int Main(int argc, char** argv) {
  Harness h("concurrency", argc, argv, /*rounds=*/21, /*smoke_rounds=*/1,
            {{"rows", 6000, 1000}});
  Engine db;
  LoadOrders(&db, static_cast<int>(h.size("rows")), /*products=*/50,
             /*customers=*/200);
  LoadCustomers(&db, /*customers=*/200);

  // Round 0 starts with the 1-session cold leg, and every cold leg refills
  // the cache it clears, so each warm leg finds the cache full.
  Comparison& c = h.Compare("sessions x shared cache", "qps");
  for (int n : {1, 2, 4, 8}) {
    for (bool warm : {false, true}) {
      const std::string name = std::to_string(n) + (warm ? "_warm" : "_cold");
      c.Add(name, [&db, n, warm](Leg& leg) {
        const EngineStats before = db.stats();
        if (!warm) db.shared_cache().Clear();
        const double qps = TimeCell(&db, n, warm ? kWarmPasses : 1);
        const EngineStats after = db.stats();
        leg.Counter("cache_hits", static_cast<double>(
                                      after.shared_cache_hits -
                                      before.shared_cache_hits));
        leg.Counter("cache_misses", static_cast<double>(
                                        after.shared_cache_misses -
                                        before.shared_cache_misses));
        return qps;
      });
    }
  }
  c.Run(h.rounds());
  c.Ratio("8_warm_over_1_cold", "8_warm", "1_cold");
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
