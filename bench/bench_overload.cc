// Overload goodput/latency benchmark: closed-loop clients drive a small
// scheduler at 1x / 2x / 4x of its worker capacity, once with
// instant-reject admission (max_admission_wait_ms=0, the pre-bounded-wait
// behavior) and once with bounded-wait admission. Every client retries
// retryable failures (Status::IsRetryable) with its own capped exponential
// backoff, so shed submissions burn client time in backoff; bounded-wait
// instead holds the submission at admission until a slot frees, keeping
// workers saturated across completion/retry gaps. Reports
// goodput (completed queries/sec) and p50/p99 client-observed latency per
// cell, and emits BENCH_overload.json.
//
// Gate (full runs only): at 2x offered load, bounded-wait goodput must be
// >= instant-reject goodput (docs/ROBUSTNESS.md). `--smoke` or any
// --benchmark* flag shrinks the run and skips the gate.
//
// Own-main bench: the timed multi-client phases don't fit the
// per-iteration google-benchmark model.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "json_writer.h"
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

struct Cell {
  std::string mode;       // "instant_reject" | "bounded_wait"
  int load_multiple = 0;  // clients = load_multiple * worker threads
  int clients = 0;
  int64_t ok = 0;
  int64_t shed = 0;  // kResourceExhausted after retries
  int64_t other = 0;
  double duration_s = 0;
  double goodput_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

Cell RunCell(Engine* db, const std::string& mode, int workers,
             int load_multiple, double duration_s) {
  Cell cell;
  cell.mode = mode;
  cell.load_multiple = load_multiple;
  cell.clients = workers * load_multiple;
  cell.duration_s = duration_s;

  SchedulerOptions sopts;
  sopts.num_threads = workers;
  // Admitted work is capped at the worker count: overload must be absorbed
  // at admission (wait or shed), not by an elastic queue.
  sopts.max_pending = static_cast<size_t>(workers);
  sopts.admission.max_admission_wait_ms = mode == "bounded_wait" ? 100 : 0;
  QueryScheduler scheduler(sopts);

  std::mutex mu;
  std::vector<double> latencies_ms;
  std::atomic<int64_t> ok{0}, shed{0}, other{0};

  const auto start = std::chrono::steady_clock::now();
  const auto stop =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::thread> threads;
  for (int c = 0; c < cell.clients; ++c) {
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

  cell.ok = ok.load();
  cell.shed = shed.load();
  cell.other = other.load();
  cell.goodput_qps = static_cast<double>(cell.ok) / wall.count();
  cell.p50_ms = Percentile(latencies_ms, 0.50);
  cell.p99_ms = Percentile(latencies_ms, 0.99);
  return cell;
}

int Main(int argc, char** argv) {
  int rows = 50000;
  int workers = 2;
  double duration_s = 1.5;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strncmp(argv[i], "--benchmark", 11) == 0) {
      smoke = true;
    }
    if (std::strncmp(argv[i], "--rows=", 7) == 0) rows = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--duration=", 11) == 0)
      duration_s = std::atof(argv[i] + 11);
  }
  if (smoke) {
    rows = std::min(rows, 5000);
    duration_s = 0.25;
  }

  Engine db;
  LoadOrders(&db, rows, /*products=*/50, /*customers=*/100);
  {  // warmup, untimed
    CheckResult(db.Query(kQuery), "warmup query");
  }

  const int multiples[] = {1, 2, 4};
  std::vector<Cell> cells;
  for (const char* mode : {"instant_reject", "bounded_wait"}) {
    for (int m : multiples) {
      cells.push_back(RunCell(&db, mode, workers, m, duration_s));
      const Cell& c = cells.back();
      std::printf(
          "%-14s %dx (%d clients): goodput %8.2f qps  p50 %7.2f ms  "
          "p99 %7.2f ms  ok=%lld shed=%lld other=%lld\n",
          c.mode.c_str(), c.load_multiple, c.clients, c.goodput_qps,
          c.p50_ms, c.p99_ms, static_cast<long long>(c.ok),
          static_cast<long long>(c.shed), static_cast<long long>(c.other));
    }
  }

  auto find_cell = [&](const std::string& mode, int m) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.mode == mode && c.load_multiple == m) return c;
    }
    std::abort();
  };
  const double instant_2x = find_cell("instant_reject", 2).goodput_qps;
  const double bounded_2x = find_cell("bounded_wait", 2).goodput_qps;
  std::printf("bounded-wait goodput at 2x: %.2f qps vs instant-reject "
              "%.2f qps (gate: bounded >= instant on the full run)\n",
              bounded_2x, instant_2x);

  std::ofstream out("BENCH_overload.json");
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("overload");
  w.Key("rows");
  w.Int(rows);
  w.Key("workers");
  w.Int(workers);
  w.Key("duration_s");
  w.Double(duration_s);
  w.Key("smoke");
  w.Bool(smoke);
  w.Key("cells");
  w.BeginArray();
  for (const Cell& c : cells) {
    w.BeginObject();
    w.Key("mode");
    w.String(c.mode);
    w.Key("load_multiple");
    w.Int(c.load_multiple);
    w.Key("clients");
    w.Int(c.clients);
    w.Key("ok");
    w.Int(c.ok);
    w.Key("shed");
    w.Int(c.shed);
    w.Key("other");
    w.Int(c.other);
    w.Key("goodput_qps");
    w.Double(c.goodput_qps);
    w.Key("p50_ms");
    w.Double(c.p50_ms);
    w.Key("p99_ms");
    w.Double(c.p99_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("bounded_2x_goodput_qps");
  w.Double(bounded_2x);
  w.Key("instant_2x_goodput_qps");
  w.Double(instant_2x);
  w.EndObject();
  out << "\n";
  std::printf("wrote BENCH_overload.json\n");

  if (!smoke && bounded_2x < instant_2x) {
    std::fprintf(stderr,
                 "GATE FAILED: bounded-wait goodput at 2x (%.2f qps) is "
                 "below instant-reject (%.2f qps)\n",
                 bounded_2x, instant_2x);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
