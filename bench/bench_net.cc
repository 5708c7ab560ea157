// Network front-end benchmark: an in-process msqld serving a large pool of
// concurrent client connections over loopback, comparing cold plan-cache
// traffic (every statement text unique, so every request pays parse + bind
// + measure expansion) against warm traffic (one hot statement, served
// from the bound-plan cache). Reports qps and client-observed p50/p99 per
// phase and emits BENCH_net.json.
//
// A third phase re-runs the warm traffic while one admin client scrapes
// GET /metrics at 10 Hz — the observability plane must be invisible to
// the data path.
//
// Gates (full runs only): warm qps must be >= 3x cold qps — the plan cache
// must actually delete the prepare cost from the hot path, through the
// whole network stack — and warm qps under scrape must stay >= 95% of
// undisturbed warm qps. `--smoke` or any --benchmark* flag shrinks the run
// (fewer connections, shorter phases) and skips the gates.
//
// Own-main bench: the timed multi-connection phases don't fit the
// per-iteration google-benchmark model.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "json_writer.h"
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

struct Phase {
  std::string name;  // "cold" | "warm"
  int64_t ok = 0;
  int64_t failed = 0;
  double duration_s = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  // Server-side execution time from the ResultBatch trailer: splits engine
  // cost from wire + dispatch overhead in the latency numbers.
  double engine_p50_ms = 0;
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

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
// phase, so the server sustains the full pool concurrently.
Phase RunPhase(const std::string& name,
               std::vector<std::unique_ptr<net::Client>>* clients,
               int drivers, double duration_s, bool unique_texts) {
  Phase phase;
  phase.name = name;
  phase.duration_s = duration_s;

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

  phase.ok = ok.load();
  phase.failed = failed.load();
  phase.qps = static_cast<double>(phase.ok) / wall.count();
  phase.p50_ms = Percentile(latencies_ms, 0.50);
  phase.p99_ms = Percentile(latencies_ms, 0.99);
  phase.engine_p50_ms = Percentile(engine_ms, 0.50);
  return phase;
}

int Main(int argc, char** argv) {
  int connections = 1000;
  // More drivers than ~4x the cores just adds scheduler contention, which
  // inflates the cheap (warm) requests far more than the cold ones.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  int drivers = std::min(16, 4 * cores);
  int rows = 50;
  double duration_s = 2.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strncmp(argv[i], "--benchmark", 11) == 0) {
      smoke = true;
    }
    if (std::strncmp(argv[i], "--connections=", 14) == 0)
      connections = std::atoi(argv[i] + 14);
    if (std::strncmp(argv[i], "--duration=", 11) == 0)
      duration_s = std::atof(argv[i] + 11);
    if (std::strncmp(argv[i], "--drivers=", 10) == 0)
      drivers = std::atoi(argv[i] + 10);
  }
  if (smoke) {
    connections = std::min(connections, 32);
    duration_s = 0.3;
    drivers = std::min(drivers, 4);
  }
  drivers = std::min(drivers, connections);
  RaiseNofile();

  EngineOptions engine_options;
  engine_options.enable_plan_cache = true;
  // Tiny per-group workloads: parallel morsel dispatch would cost more
  // than it saves and only add latency noise to both phases.
  engine_options.measure_parallelism = 1;
  Engine db(engine_options);
  LoadOrders(&db, rows, /*products=*/8, /*customers=*/25);
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

  {  // warmup, untimed: one round through the hot statement
    CheckResult(clients[0]->Query(kHotQuery), "warmup query");
  }

  Phase cold = RunPhase("cold", &clients, drivers, duration_s,
                        /*unique_texts=*/true);
  Phase warm = RunPhase("warm", &clients, drivers, duration_s,
                        /*unique_texts=*/false);

  // Warm traffic again, now with a Prometheus-style scraper hitting the
  // admin endpoint at 10 Hz for the whole phase.
  std::atomic<bool> scraping{true};
  std::atomic<int64_t> scrapes_ok{0}, scrapes_failed{0};
  std::thread scraper([&] {
    while (scraping.load(std::memory_order_acquire)) {
      if (ScrapeMetrics(server.admin_port())) {
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        scrapes_failed.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  Phase warm_scrape = RunPhase("warm_scrape", &clients, drivers, duration_s,
                               /*unique_texts=*/false);
  scraping.store(false, std::memory_order_release);
  scraper.join();

  for (const Phase* p : {&cold, &warm, &warm_scrape}) {
    std::printf("%-5s %8.1f qps  p50 %7.3f ms (engine %6.3f)  p99 %7.3f ms  "
                "ok=%lld failed=%lld\n",
                p->name.c_str(), p->qps, p->p50_ms, p->engine_p50_ms,
                p->p99_ms, static_cast<long long>(p->ok),
                static_cast<long long>(p->failed));
  }
  const double speedup = cold.qps > 0 ? warm.qps / cold.qps : 0;
  std::printf("warm/cold speedup: %.2fx (gate: >= 3x on the full run)\n",
              speedup);
  const double scrape_impact =
      warm.qps > 0 ? warm_scrape.qps / warm.qps : 0;
  std::printf("qps under 10 Hz /metrics scrape: %.2fx of warm "
              "(%lld scrapes ok, %lld failed; gate: >= 0.95x)\n",
              scrape_impact, static_cast<long long>(scrapes_ok.load()),
              static_cast<long long>(scrapes_failed.load()));

  for (auto& client : clients) client->Disconnect();
  server.Stop();

  std::ofstream out("BENCH_net.json");
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("net");
  w.Key("connections");
  w.Int(connections);
  w.Key("drivers");
  w.Int(drivers);
  w.Key("rows");
  w.Int(rows);
  w.Key("duration_s");
  w.Double(duration_s);
  w.Key("smoke");
  w.Bool(smoke);
  w.Key("phases");
  w.BeginArray();
  for (const Phase* p : {&cold, &warm, &warm_scrape}) {
    w.BeginObject();
    w.Key("name");
    w.String(p->name);
    w.Key("ok");
    w.Int(p->ok);
    w.Key("failed");
    w.Int(p->failed);
    w.Key("qps");
    w.Double(p->qps);
    w.Key("p50_ms");
    w.Double(p->p50_ms);
    w.Key("p99_ms");
    w.Double(p->p99_ms);
    w.Key("engine_p50_ms");
    w.Double(p->engine_p50_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("warm_over_cold_speedup");
  w.Double(speedup);
  w.Key("scrape_impact");
  w.Double(scrape_impact);
  w.Key("scrapes_ok");
  w.Int(scrapes_ok.load());
  w.Key("scrapes_failed");
  w.Int(scrapes_failed.load());
  w.EndObject();
  out << "\n";

  if (cold.failed + warm.failed + warm_scrape.failed > 0) {
    std::fprintf(stderr, "bench_net: %lld requests failed\n",
                 static_cast<long long>(cold.failed + warm.failed +
                                        warm_scrape.failed));
    return 1;
  }
  if (scrapes_ok.load() == 0) {
    std::fprintf(stderr, "bench_net: no successful /metrics scrape\n");
    return 1;
  }
  if (!smoke && speedup < 3.0) {
    std::fprintf(stderr,
                 "bench_net gate FAILED: warm qps %.1f < 3x cold qps %.1f\n",
                 warm.qps, cold.qps);
    return 1;
  }
  if (!smoke && scrape_impact < 0.95) {
    std::fprintf(stderr,
                 "bench_net gate FAILED: qps under scrape %.1f < 95%% of "
                 "warm qps %.1f\n",
                 warm_scrape.qps, warm.qps);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
