// Network front-end benchmark: an in-process msqld serving a large pool of
// concurrent client connections over loopback, comparing cold plan-cache
// traffic (every statement text unique, so every request pays parse + bind
// + measure expansion) against warm traffic (one hot statement, served
// from the bound-plan cache). Reports qps and client-observed p50/p99 per
// phase.
//
// A third phase re-runs the warm traffic while one admin client scrapes
// GET /metrics at 10 Hz — the observability plane must be invisible to
// the data path.
//
// Gates (full runs only, on the median of the per-round qps ratios; a
// full run is one round): warm qps must be >= 3x cold qps — the plan cache
// must actually delete the prepare cost from the hot path, through the
// whole network stack — and warm qps under scrape must stay >= 95% of
// undisturbed warm qps.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "workload.h"

namespace msql::bench {
namespace {

// A semantic-layer statement: the query reads the top of a stack of
// measure views (L24 -> ... -> EO -> Orders), so binding re-expands the
// whole layer cake — exactly the repeated-dashboard cost the plan cache
// exists to delete. Execution itself is cheap (small table), so the
// cold/warm gap isolates prepare cost.
const char* const kHotQuery =
    "SELECT prodName, AGGREGATE(sumRevenue) AS rev, "
    "AGGREGATE(sumRevenue) / (sumRevenue AT (ALL)) AS frac, "
    "AGGREGATE(margin) AS m, "
    "AGGREGATE(margin) / (margin AT (ALL)) AS mfrac, "
    "AGGREGATE(orderCount) AS n, "
    "AGGREGATE(orderCount) / (orderCount AT (ALL)) AS share, "
    "AGGREGATE(sumRevenue) - AGGREGATE(margin) AS c, "
    "(sumRevenue AT (ALL)) - (margin AT (ALL)) AS tc, "
    "AGGREGATE(sumRevenue) / AGGREGATE(orderCount) AS avg_rev, "
    "AGGREGATE(margin) / AGGREGATE(orderCount) AS avg_m "
    "FROM L24 GROUP BY prodName ORDER BY prodName";

// One Prometheus-style scrape: GET /metrics, read until the server closes.
// Returns true when a complete 200 response arrived.
bool ScrapeMetrics(uint16_t admin_port) {
  auto sock = net::ConnectTo("127.0.0.1", admin_port, 2000);
  if (!sock.ok()) return false;
  const char request[] = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!net::WriteAll(sock.value().fd(), request, sizeof(request) - 1, 2000)
           .ok()) {
    return false;
  }
  std::string response;
  char buf[8192];
  while (true) {
    pollfd pfd{sock.value().fd(), POLLIN, 0};
    if (poll(&pfd, 1, 2000) <= 0) break;
    const ssize_t got = ::recv(sock.value().fd(), buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<size_t>(got));
  }
  return response.find("200 OK") != std::string::npos;
}

// Raise the fd ceiling: the bench holds client and server ends of every
// connection in one process, so 1k connections need >2k descriptors.
void RaiseNofile() {
  rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
}

// Drives one phase: `drivers` threads round-robin over disjoint slices of
// the (already connected) client pool — a Client is not safe for two
// threads at once — each issuing blocking request/response queries
// for `duration_s`. Every connection stays established for the whole
// phase, so the server sustains the full pool concurrently. Returns the
// phase's qps, records its tallies and latency percentiles on `leg` and
// adds its failed requests to `*failures`.
double RunPhase(std::vector<std::unique_ptr<net::Client>>* clients,
                int drivers, double duration_s, bool unique_texts, Leg& leg,
                int64_t* failures) {
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::vector<double> engine_ms;
  std::atomic<int64_t> ok{0}, failed{0};
  std::atomic<int64_t> text_counter{0};

  const auto start = std::chrono::steady_clock::now();
  const auto stop =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::thread> threads;
  const size_t n = clients->size();
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      std::vector<double> local;
      std::vector<double> local_engine;
      size_t next = static_cast<size_t>(d);
      while (std::chrono::steady_clock::now() < stop) {
        net::Client& client = *(*clients)[next];
        next += static_cast<size_t>(drivers);
        if (next >= n) next = static_cast<size_t>(d);
        std::string sql = kHotQuery;
        if (unique_texts) {
          // A fresh LIMIT literal (always larger than the result) per
          // request defeats the text-keyed cache: every statement is a
          // guaranteed miss with identical semantics.
          sql += " LIMIT " +
                 std::to_string(1000000 + text_counter.fetch_add(1));
        }
        const auto t0 = std::chrono::steady_clock::now();
        auto r = client.Query(sql);
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - t0;
        if (r.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          local.push_back(elapsed.count());
          // Server-side execution time from the ResultBatch trailer:
          // splits engine cost from wire + dispatch overhead.
          if (r.value().stats() != nullptr) {
            local_engine.push_back(
                static_cast<double>(r.value().stats()->total_us) / 1000.0);
          }
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      engine_ms.insert(engine_ms.end(), local_engine.begin(),
                       local_engine.end());
    });
  }
  for (auto& t : threads) t.join();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  leg.Counter("ok", static_cast<double>(ok.load()));
  leg.Counter("failed", static_cast<double>(failed.load()));
  leg.Counter("p50_ms", Quantile(latencies_ms, 0.50));
  leg.Counter("p99_ms", Quantile(latencies_ms, 0.99));
  leg.Counter("engine_p50_ms", Quantile(engine_ms, 0.50));
  *failures += failed.load();
  return static_cast<double>(ok.load()) / wall.count();
}

int Main(int argc, char** argv) {
  // More drivers than ~4x the cores just adds scheduler contention, which
  // inflates the cheap (warm) requests far more than the cold ones.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Harness h("net", argc, argv, /*rounds=*/1, /*smoke_rounds=*/1,
            {{"connections", 1000, 32},
             {"duration", 2.0, 0.3},
             {"drivers", static_cast<double>(std::min(16, 4 * cores)), 4},
             {"rows", 50, 50, /*settable=*/false}});
  const int connections = static_cast<int>(h.size("connections"));
  const int drivers =
      std::min(static_cast<int>(h.size("drivers")), connections);
  const double duration_s = h.size("duration");
  RaiseNofile();

  EngineOptions engine_options;
  engine_options.enable_plan_cache = true;
  // Tiny per-group workloads: parallel morsel dispatch would cost more
  // than it saves and only add latency noise to both phases.
  engine_options.measure_parallelism = 1;
  Engine db(engine_options);
  LoadOrders(&db, static_cast<int>(h.size("rows")), /*products=*/8,
             /*customers=*/25);
  // Semantic-layer stack: each level re-exports the measure view below.
  Check(db.Execute("CREATE VIEW L1 AS SELECT * FROM EO"), "create L1");
  for (int level = 2; level <= 24; ++level) {
    Check(db.Execute("CREATE VIEW L" + std::to_string(level) +
                     " AS SELECT * FROM L" + std::to_string(level - 1)),
          "create view stack");
  }

  net::ServerOptions server_options;
  server_options.admin_port = 0;  // ephemeral; scraped in the third phase
  server_options.num_handler_threads = 2;
  server_options.num_worker_threads =
      std::max(2u, std::thread::hardware_concurrency());
  server_options.max_connections = static_cast<size_t>(connections) + 64;
  net::MsqldServer server(&db, server_options);
  Check(server.Start(), "server start");

  std::vector<std::unique_ptr<net::Client>> clients;
  clients.reserve(connections);
  for (int i = 0; i < connections; ++i) {
    auto client = std::make_unique<net::Client>();
    net::ClientOptions copts;
    copts.user = "bench";
    Check(client->Connect("127.0.0.1", server.port(), copts),
          "client connect");
    clients.push_back(std::move(client));
  }
  std::printf("%d connections established (server reports %d active)\n",
              connections, server.active_connections());
  CheckResult(clients[0]->Query(kHotQuery), "warmup query");  // untimed

  int64_t failures = 0;
  int64_t scrapes_ok = 0;
  Comparison& c = h.Compare("loopback traffic", "qps");
  c.Add("cold", [&](Leg& leg) {
    return RunPhase(&clients, drivers, duration_s, /*unique_texts=*/true,
                    leg, &failures);
  });
  c.Add("warm", [&](Leg& leg) {
    return RunPhase(&clients, drivers, duration_s, /*unique_texts=*/false,
                    leg, &failures);
  });
  // Warm traffic again, now with a Prometheus-style scraper hitting the
  // admin endpoint at 10 Hz for the whole phase.
  c.Add("warm_scrape", [&](Leg& leg) {
    std::atomic<bool> scraping{true};
    int64_t ok = 0, failed = 0;  // written by the scraper until joined
    std::thread scraper([&] {
      while (scraping.load(std::memory_order_acquire)) {
        ++(ScrapeMetrics(server.admin_port()) ? ok : failed);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    const double qps = RunPhase(&clients, drivers, duration_s,
                                /*unique_texts=*/false, leg, &failures);
    scraping.store(false, std::memory_order_release);
    scraper.join();
    scrapes_ok += ok;
    leg.Counter("scrapes_ok", static_cast<double>(ok));
    leg.Counter("scrapes_failed", static_cast<double>(failed));
    return qps;
  });
  c.Run(h.rounds());
  for (auto& client : clients) client->Disconnect();
  server.Stop();

  h.Check("no request failed", failures == 0);
  h.Check("a /metrics scrape succeeded", scrapes_ok > 0);
  h.Gate("warm_over_cold >= 3",
         c.Ratio("warm_over_cold", "warm", "cold").median >= 3.0);
  h.Gate("warm_scrape_over_warm >= 0.95",
         c.Ratio("warm_scrape_over_warm", "warm_scrape", "warm").median >=
             0.95);
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
