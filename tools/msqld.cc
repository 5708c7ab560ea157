// msqld: the msql network server (docs/NETWORKING.md). Hosts one Engine
// behind the length-prefixed wire protocol of src/net/wire.h and serves
// concurrent clients (msql_shell --connect, net::Client).
//
//   msqld [--host H] [--port P] [--admin-port P] [--handlers N] [--workers N]
//         [--rate-limit-qps Q] [--rate-limit-burst B]
//         [--max-connections N] [--max-connections-per-user N]
//         [--default-timeout-ms MS] [--no-plan-cache]
//         [--no-system-tables] [--init FILE ...]
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// printed as "msqld listening on HOST:PORT" so scripts can scrape it.
// --admin-port opens the HTTP admin plane (/metrics, /healthz, /statusz,
// /tracez — docs/OBSERVABILITY.md); it is off unless the flag is given,
// and 0 binds an ephemeral admin port, printed the same way. msqld exposes
// the msql_system.* introspection tables by default; --no-system-tables
// hides them.
// --init files run through Engine::Execute before the listener opens, so
// clients never observe a half-loaded catalog. SIGINT/SIGTERM shut down
// gracefully: in-flight statements are cancelled, connections closed.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/server.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--admin-port P]\n"
               "          [--handlers N] [--workers N]\n"
               "          [--rate-limit-qps Q] [--rate-limit-burst B]\n"
               "          [--max-connections N] [--max-connections-per-user N]\n"
               "          [--default-timeout-ms MS] [--no-plan-cache]\n"
               "          [--no-system-tables] [--init FILE ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  msql::EngineOptions engine_options;
  engine_options.enable_plan_cache = true;
  engine_options.enable_system_tables = true;
  msql::net::ServerOptions server_options;
  server_options.num_handler_threads = 4;
  server_options.num_worker_threads = 8;
  std::vector<std::string> init_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--admin-port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.admin_port = std::atoi(v);
    } else if (arg == "--handlers") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.num_handler_threads = std::atoi(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.num_worker_threads = std::atoi(v);
    } else if (arg == "--rate-limit-qps") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.admission.per_user_rate_limit_qps = std::atof(v);
    } else if (arg == "--rate-limit-burst") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.admission.per_user_rate_limit_burst = std::atoll(v);
    } else if (arg == "--max-connections") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.max_connections = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--max-connections-per-user") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.max_connections_per_user = std::atoi(v);
    } else if (arg == "--default-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      server_options.default_timeout_ms = std::atoll(v);
    } else if (arg == "--no-plan-cache") {
      engine_options.enable_plan_cache = false;
    } else if (arg == "--no-system-tables") {
      engine_options.enable_system_tables = false;
    } else if (arg == "--init") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      init_files.push_back(v);
    } else {
      return Usage(argv[0]);
    }
  }

  msql::Engine engine(engine_options);
  for (const std::string& file : init_files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "msqld: cannot open %s\n", file.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    msql::Status st = engine.Execute(buffer.str());
    if (!st.ok()) {
      std::fprintf(stderr, "msqld: %s: %s\n", file.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  msql::net::MsqldServer server(&engine, server_options);
  msql::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "msqld: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("msqld listening on %s:%u\n", server_options.host.c_str(),
              server.port());
  if (server_options.admin_port >= 0) {
    std::printf("msqld admin on http://%s:%u\n", server_options.host.c_str(),
                server.admin_port());
  }
  std::fflush(stdout);

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "msqld: shutting down (%d connection%s open)\n",
               server.active_connections(),
               server.active_connections() == 1 ? "" : "s");
  server.Stop();
  return 0;
}
