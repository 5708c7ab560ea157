// Overload goodput/latency benchmark: closed-loop clients drive a small
// scheduler at 1x / 2x / 4x of its worker capacity, once with
// instant-reject admission (max_admission_wait_ms=0, the pre-bounded-wait
// behavior) and once with bounded-wait admission. Every client retries
// retryable failures (Status::IsRetryable) with its own capped exponential
// backoff, so shed submissions burn client time in backoff; bounded-wait
// instead holds the submission at admission until a slot frees, keeping
// workers saturated across completion/retry gaps. Reports goodput
// (completed queries/sec) and p50/p99 client-observed latency per cell.
//
// Gate (full runs only): at 2x offered load, bounded-wait goodput must be
// >= instant-reject goodput (docs/ROBUSTNESS.md), as the median of the
// per-round ratios; a full run is one round, so that is the one pair.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"
#include "workload.h"

namespace msql::bench {
namespace {

// Plain aggregation (no measure cache): every execution pays the scan, so
// a query occupies a worker for a stable, non-trivial slice of time.
const char* const kQuery =
    "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName "
    "ORDER BY prodName";

// Submit + wait, retrying retryable failures: up to 4 tries, sleeping 2 ms
// doubling to 16 ms between them, scaled by a jitter factor in [0.5, 1)
// from the client's seeded generator so concurrent clients decorrelate
// while runs stay reproducible.
Result<ResultSet> SubmitRetrying(QueryScheduler& scheduler,
                                 const SessionPtr& session,
                                 std::mt19937_64& rng) {
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  int64_t backoff_us = 2000;
  for (int attempt = 1;; ++attempt) {
    Result<QueryScheduler::QueryFuture> submitted =
        scheduler.Submit(session, kQuery);
    Result<ResultSet> r = submitted.ok()
                              ? submitted.value().get()
                              : Result<ResultSet>(submitted.status());
    if (r.ok() || !r.status().IsRetryable() || attempt == 4) return r;
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(static_cast<double>(backoff_us) * jitter(rng))));
    backoff_us = std::min<int64_t>(backoff_us * 2, 16000);
  }
}

// One closed-loop cell: `clients` clients for `duration_s` against a
// scheduler with `workers` workers. Returns the goodput (queries/sec) and
// records the cell's tallies and latency percentiles on `leg`.
double RunCell(Engine* db, bool bounded_wait, int workers, int clients,
               double duration_s, Leg& leg) {
  SchedulerOptions sopts;
  sopts.num_threads = workers;
  // Admitted work is capped at the worker count: overload must be absorbed
  // at admission (wait or shed), not by an elastic queue.
  sopts.max_pending = static_cast<size_t>(workers);
  sopts.admission.max_admission_wait_ms = bounded_wait ? 100 : 0;
  QueryScheduler scheduler(sopts);

  std::mutex mu;
  std::vector<double> latencies_ms;
  std::atomic<int64_t> ok{0}, shed{0}, other{0};

  const auto start = std::chrono::steady_clock::now();
  const auto stop =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SessionPtr session = db->CreateSession();
      std::mt19937_64 rng(static_cast<uint64_t>(c) + 1);
      std::vector<double> local;
      while (std::chrono::steady_clock::now() < stop) {
        const auto t0 = std::chrono::steady_clock::now();
        Result<ResultSet> r = SubmitRetrying(scheduler, session, rng);
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - t0;
        if (r.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          local.push_back(elapsed.count());
        } else if (r.status().code() == ErrorCode::kResourceExhausted) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  scheduler.Drain();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  leg.Counter("clients", clients);
  leg.Counter("ok", static_cast<double>(ok.load()));
  leg.Counter("shed", static_cast<double>(shed.load()));
  leg.Counter("other", static_cast<double>(other.load()));
  leg.Counter("p50_ms", Quantile(latencies_ms, 0.50));
  leg.Counter("p99_ms", Quantile(latencies_ms, 0.99));
  return static_cast<double>(ok.load()) / wall.count();
}

int Main(int argc, char** argv) {
  Harness h("overload", argc, argv, /*rounds=*/1, /*smoke_rounds=*/1,
            {{"rows", 50000, 5000},
             {"duration", 1.5, 0.25},
             {"workers", 2, 2, /*settable=*/false}});
  const int workers = static_cast<int>(h.size("workers"));
  const double duration_s = h.size("duration");
  Engine db;
  LoadOrders(&db, static_cast<int>(h.size("rows")), /*products=*/50,
             /*customers=*/100);
  CheckResult(db.Query(kQuery), "warmup query");  // untimed

  // Clients = load multiple x worker threads.
  Comparison& c = h.Compare("closed-loop goodput", "qps");
  for (bool bounded_wait : {false, true}) {
    for (int m : {1, 2, 4}) {
      c.Add(std::string(bounded_wait ? "bounded_wait" : "instant_reject") +
                "_" + std::to_string(m) + "x",
            [&, bounded_wait, m](Leg& leg) {
              return RunCell(&db, bounded_wait, workers, workers * m,
                             duration_s, leg);
            });
    }
  }
  c.Run(h.rounds());
  h.Gate("bounded_wait_2x >= instant_reject_2x",
         c.Ratio("bounded_over_instant_2x", "bounded_wait_2x",
                 "instant_reject_2x")
                 .median >= 1.0);
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
