// Deterministic fault-injection sweep: run a paper-listing workload once
// with the injector counting checkpoints, then re-run it N times with the
// injected failure stepped across every checkpoint. Every run must fail
// with a clean Status (never crash, hang, or corrupt), and the engine must
// answer a correctness probe afterwards.

#include <poll.h>
#include <sys/socket.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "catalog/csv.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/scheduler.h"

namespace msql {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    csv_path_ = testing::TempDir() + "/msql_fault_orders.csv";
    out_path_ = testing::TempDir() + "/msql_fault_out.csv";
    std::ofstream out(csv_path_);
    out << "prodName,custName,revenue\n"
           "Happy,Alice,6\nAcme,Bob,5\nHappy,Alice,7\n"
           "Whizz,Celia,3\nHappy,Bob,4\n";
  }

  void TearDown() override {
    FaultInjector::Instance().Reset();
    std::remove(csv_path_.c_str());
    std::remove(out_path_.c_str());
  }

  // One full workload on a fresh engine: DDL, CSV import/export, measure
  // queries from the paper's listings, subqueries, and a DROP. Collects
  // every Status so the sweep can assert the injected fault surfaced.
  std::vector<Status> RunWorkload() {
    Engine db;
    std::vector<Status> statuses;
    auto exec = [&](const std::string& sql) {
      statuses.push_back(db.Execute(sql));
    };
    auto query = [&](const std::string& sql) {
      statuses.push_back(db.Query(sql).status());
    };

    statuses.push_back(db.ImportCsv("Orders", csv_path_));
    statuses.push_back(db.LoadCsv("Orders", csv_path_));
    exec("CREATE TABLE Customers (custName VARCHAR, custAge INTEGER)");
    exec("INSERT INTO Customers VALUES ('Alice', 23), ('Bob', 41), "
         "('Celia', 17)");
    exec("CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
    // Paper listing shapes: plain AGGREGATE, AT modifiers, joins,
    // subqueries.
    query("SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
    query("SELECT prodName, AGGREGATE(r) / (r AT (ALL)) AS frac "
          "FROM EO GROUP BY prodName");
    query("SELECT custName, AGGREGATE(r) FROM EO GROUP BY custName "
          "ORDER BY custName");
    // Bare measure under GROUP BY: all-dimension contexts drive the grouped
    // hash-index path and its measure.grouped_index_build checkpoint.
    query("SELECT prodName, r AS bare FROM EO GROUP BY prodName");
    query("SELECT c.custName, AGGREGATE(r) FROM EO o JOIN Customers c "
          "ON o.custName = c.custName GROUP BY c.custName");
    query("SELECT prodName FROM Orders WHERE revenue > "
          "(SELECT AVG(revenue) FROM Orders)");
    if (const auto e = db.catalog().Find("Orders");
        e != nullptr && e->table != nullptr) {
      statuses.push_back(WriteCsv(out_path_, *e->table));
    }
    exec("DROP VIEW EO");
    return statuses;
  }

  std::string csv_path_;
  std::string out_path_;
};

TEST_F(FaultInjectionTest, CheckpointsCoverTheWorkload) {
  auto& fi = FaultInjector::Instance();
  fi.ArmAt(0);  // count-only
  std::vector<Status> statuses = RunWorkload();
  int64_t n = fi.hits();
  fi.Reset();
  for (const Status& st : statuses) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  // The workload must cross a healthy number of checkpoints across layers
  // (statement dispatch, exec, subqueries, measures, catalog, CSV).
  EXPECT_GE(n, 30) << "checkpoint instrumentation has regressed";
}

TEST_F(FaultInjectionTest, SweepFailsCleanlyAtEveryCheckpoint) {
  auto& fi = FaultInjector::Instance();
  fi.ArmAt(0);
  (void)RunWorkload();
  const int64_t n = fi.hits();
  fi.Reset();
  ASSERT_GT(n, 0);

  for (int64_t i = 1; i <= n; ++i) {
    fi.ArmAt(i);
    std::vector<Status> statuses = RunWorkload();
    const bool fired = fi.fired();
    const std::string fired_site = fi.fired_site();
    const int64_t hits = fi.hits();
    fi.Reset();
    // Every failure below leads with the run: a cut-off log still names
    // the checkpoint, the site that fired and what each statement returned.
    std::string run = StrCat("checkpoint ", i, " of ", n, " ('", fired_site,
                             "', ", hits, " crossed):");
    for (size_t s = 0; s < statuses.size(); ++s) {
      if (!statuses[s].ok()) {
        run += StrCat(" [", s, "] ", statuses[s].ToString(), ";");
      }
    }
    EXPECT_TRUE(fired) << run << " never reached";

    // Exactly the injected failure must surface in some Status; cascading
    // follow-on failures (e.g. queries against a table whose import was
    // killed) are fine as long as they are clean Statuses too.
    int injected = 0;
    for (const Status& st : statuses) {
      if (!st.ok() &&
          st.message().find("injected fault") != std::string::npos) {
        ++injected;
      }
    }
    if (fired_site == "measure.grouped_index_build" ||
        fired_site == "runtime.shared_cache_fill" ||
        fired_site == "exec.vectorized_kernel") {
      // Degradable checkpoints: a grouped-index build fault falls back to
      // the per-context scan path, a shared-cache fill fault skips the
      // fill (the query still returns correct, uncached results), and a
      // vectorized-kernel fault drops the operator to row-at-a-time
      // execution. None may leak into a query Status.
      EXPECT_EQ(injected, 0)
          << run << " a degradable fault leaked into a query Status";
    } else {
      EXPECT_EQ(injected, 1)
          << run << " the injected fault did not surface exactly once";
    }

    // The engine (a fresh one per run) must still work after the fault.
    Engine probe;
    ASSERT_TRUE(
        probe.Execute("CREATE TABLE T (x INTEGER); INSERT INTO T VALUES (1)")
            .ok())
        << run;
    auto r = probe.Query("SELECT x + 1 FROM T");
    ASSERT_TRUE(r.ok()) << run << " probe: " << r.status().ToString();
    EXPECT_EQ(r.value().Get(0, 0).int_val(), 2) << run;
  }
}

TEST_F(FaultInjectionTest, ObsSweepDegradesGracefully) {
  // With tracing and the slow-query log enabled, the workload crosses the
  // observability checkpoints (obs.trace_sink, obs.slow_log_write). A fault
  // injected there must NOT fail the query: trace publication degrades to a
  // bump of msql_obs_sink_errors_total. Faults at every other checkpoint
  // still surface exactly once as before.
  const std::string log_path = testing::TempDir() + "/msql_fault_slow.jsonl";
  struct RunResult {
    std::vector<Status> statuses;
    uint64_t sink_errors = 0;
  };
  auto run = [&]() {
    EngineOptions options;
    options.enable_tracing = true;
    options.slow_query_log_ms = 0;  // log every traced query
    options.slow_query_log_path = log_path;
    Engine db(options);
    RunResult result;
    result.statuses.push_back(db.ImportCsv("Orders", csv_path_));
    result.statuses.push_back(db.Execute(
        "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders"));
    result.statuses.push_back(
        db.Query("SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName")
            .status());
    result.statuses.push_back(
        db.Query("SELECT custName, r AT (ALL) AS total FROM EO "
                 "GROUP BY custName")
            .status());
    if (obs::Counter* c = db.metrics().GetCounter("msql_obs_sink_errors_total");
        c != nullptr) {
      result.sink_errors = c->value();
    }
    return result;
  };

  auto& fi = FaultInjector::Instance();
  fi.ArmAt(0);  // count-only
  {
    RunResult clean = run();
    for (const Status& st : clean.statuses) {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_EQ(clean.sink_errors, 0u);
  }
  const int64_t n = fi.hits();
  fi.Reset();
  ASSERT_GT(n, 0);

  int obs_checkpoints = 0;
  for (int64_t i = 1; i <= n; ++i) {
    fi.ArmAt(i);
    RunResult result = run();
    EXPECT_TRUE(fi.fired()) << "checkpoint " << i << " never reached";
    const std::string fired_site = fi.fired_site();
    fi.Reset();

    int injected = 0;
    for (const Status& st : result.statuses) {
      if (!st.ok() &&
          st.message().find("injected fault") != std::string::npos) {
        ++injected;
      }
    }
    if (fired_site.rfind("obs.", 0) == 0) {
      // Observability faults degrade: no query fails, the error counter
      // records the dropped trace.
      ++obs_checkpoints;
      EXPECT_EQ(injected, 0)
          << "checkpoint " << i << " ('" << fired_site
          << "'): an observability fault leaked into a query Status";
      EXPECT_GE(result.sink_errors, 1u)
          << "checkpoint " << i << " ('" << fired_site
          << "'): sink failure was not counted";
    } else if (fired_site == "measure.grouped_index_build" ||
               fired_site == "runtime.shared_cache_fill" ||
               fired_site == "exec.vectorized_kernel") {
      // Degradable runtime checkpoints: the query proceeds on the
      // unoptimized path instead of failing.
      EXPECT_EQ(injected, 0)
          << "checkpoint " << i << " ('" << fired_site
          << "'): a degradable fault leaked into a query Status";
    } else {
      EXPECT_EQ(injected, 1)
          << "checkpoint " << i << " ('" << fired_site
          << "'): injected fault did not surface exactly once";
    }
  }
  // The traced workload crosses both trace-sink publication and the
  // slow-log write; losing these means the degradation path is untested.
  EXPECT_GE(obs_checkpoints, 2);
  std::remove(log_path.c_str());
}

TEST_F(FaultInjectionTest, GroupedIndexBuildFaultDegradesToScan) {
  // A fault while building the grouped hash index must never fail the
  // query: the evaluator caches the failure, falls back to the per-context
  // scan path, and bumps msql_measure_grouped_fallbacks_total. The second
  // input's formula references an input measure (paper section 5.4).
  struct Input {
    const char* views;
    const char* sql;
    int64_t want[3];  // Acme, Happy, Whizz
  };
  const Input inputs[] = {
      {"CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders",
       "SELECT prodName, r AS v FROM EO GROUP BY prodName ORDER BY prodName",
       {5, 17, 3}},  // Happy: 6 + 7 + 4
      {"CREATE VIEW L1 AS SELECT *, SUM(revenue) AS MEASURE rev FROM Orders;"
       "CREATE VIEW L2 AS SELECT *, rev - COUNT(*) AS MEASURE profit "
       "FROM L1",
       "SELECT prodName, profit AS v FROM L2 GROUP BY prodName "
       "ORDER BY prodName",
       {4, 14, 2}},  // Happy: 17 - 3
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.sql);
    // Fresh engine per run so the shared measure cache never
    // short-circuits the build checkpoint out of the run.
    auto run = [&](ResultSet* out, std::shared_ptr<const QueryStats>* stats) {
      Engine db;
      Status import = db.ImportCsv("Orders", csv_path_);
      if (!import.ok()) return import;
      Status view = db.Execute(in.views);
      if (!view.ok()) return view;
      auto r = db.Query(in.sql);
      if (!r.ok()) return r.status();
      *stats = r.value().stats();
      *out = std::move(r.value());
      return Status::Ok();
    };

    auto& fi = FaultInjector::Instance();
    fi.ArmAt(0);  // count-only
    {
      ResultSet rs;
      std::shared_ptr<const QueryStats> stats;
      ASSERT_TRUE(run(&rs, &stats).ok());
      ASSERT_NE(stats, nullptr);
      EXPECT_GE(stats->measure_grouped_builds, 1u);
    }
    const int64_t n = fi.hits();
    fi.Reset();
    ASSERT_GT(n, 0);

    bool exercised = false;
    for (int64_t i = 1; i <= n; ++i) {
      fi.ArmAt(i);
      ResultSet rs;
      std::shared_ptr<const QueryStats> stats;
      Status st = run(&rs, &stats);
      const std::string fired_site = fi.fired_site();
      fi.Reset();
      if (fired_site != "measure.grouped_index_build") continue;
      exercised = true;
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_NE(stats, nullptr);
      EXPECT_GE(stats->measure_grouped_fallbacks, 1u);
      EXPECT_EQ(stats->measure_grouped_builds, 0u);
      EXPECT_GT(stats->measure_source_scans, 0u);
      // Degraded results are still the correct totals.
      ASSERT_EQ(rs.num_rows(), 3u);
      for (size_t row = 0; row < 3; ++row) {
        EXPECT_EQ(rs.Get(row, "v").int_val(), in.want[row]) << row;
      }
    }
    EXPECT_TRUE(exercised)
        << "the workload never crossed measure.grouped_index_build";
  }
}

TEST_F(FaultInjectionTest, VectorizedKernelFaultDegradesToRowExecution) {
  // A fault at exec.vectorized_kernel must never fail the query: the
  // operator drops to row-at-a-time execution, bumps
  // msql_exec_row_fallbacks_total, and produces identical results.
  const char* sql =
      "SELECT prodName, r AS v FROM EO GROUP BY prodName ORDER BY prodName";
  auto run = [&](ResultSet* out, std::shared_ptr<const QueryStats>* stats) {
    Engine db;
    Status import = db.ImportCsv("Orders", csv_path_);
    if (!import.ok()) return import;
    Status view = db.Execute(
        "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders");
    if (!view.ok()) return view;
    auto r = db.Query(sql);
    if (!r.ok()) return r.status();
    *stats = r.value().stats();
    *out = std::move(r.value());
    return Status::Ok();
  };

  auto& fi = FaultInjector::Instance();
  fi.ArmAt(0);  // count-only
  {
    ResultSet rs;
    std::shared_ptr<const QueryStats> stats;
    ASSERT_TRUE(run(&rs, &stats).ok());
  }
  const int64_t n = fi.hits();
  fi.Reset();
  ASSERT_GT(n, 0);

  bool exercised = false;
  for (int64_t i = 1; i <= n; ++i) {
    fi.ArmAt(i);
    ResultSet rs;
    std::shared_ptr<const QueryStats> stats;
    Status st = run(&rs, &stats);
    const std::string fired_site = fi.fired_site();
    fi.Reset();
    if (fired_site != "exec.vectorized_kernel") continue;
    exercised = true;
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NE(stats, nullptr);
    EXPECT_GE(stats->exec_row_fallbacks, 1u);
    // Degraded results are still the listing's correct totals.
    ASSERT_EQ(rs.num_rows(), 3u);
    EXPECT_EQ(rs.Get(0, "v").int_val(), 5);    // Acme
    EXPECT_EQ(rs.Get(1, "v").int_val(), 17);   // Happy: 6 + 7 + 4
    EXPECT_EQ(rs.Get(2, "v").int_val(), 3);    // Whizz
  }
  EXPECT_TRUE(exercised)
      << "the workload never crossed exec.vectorized_kernel";
}

TEST_F(FaultInjectionTest, AdmissionSweep) {
  // The runtime.admission_wait fault point at the head of admission is
  // crossed deterministically through the scheduler and fires cleanly.
  auto& fi = FaultInjector::Instance();
  Engine db;
  ASSERT_TRUE(db.ImportCsv("Orders", csv_path_).ok());

  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_pending = 0;            // every submission is shed...
  opts.admission.max_admission_wait_ms = 0;  // ...immediately
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();

  // Count-only pass: the one submission crosses runtime.admission_wait
  // once and is shed; nothing executes.
  fi.ArmAt(0);
  {
    auto f = scheduler.Submit(session, "SELECT COUNT(*) FROM Orders");
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), ErrorCode::kResourceExhausted);
  }
  EXPECT_EQ(fi.hits(), 1);
  fi.Reset();

  // Fire at admission: the submission fails with the injected fault before
  // any waiting.
  fi.ArmSite("runtime.admission_wait", 1);
  {
    auto f = scheduler.Submit(session, "SELECT COUNT(*) FROM Orders");
    ASSERT_FALSE(f.ok());
    EXPECT_NE(f.status().message().find("injected fault"), std::string::npos)
        << f.status().ToString();
    EXPECT_EQ(fi.fired_site(), "runtime.admission_wait");
    EXPECT_EQ(fi.fire_count(), 1);
  }
  fi.Reset();

  // Disarmed again, the same scheduler still sheds cleanly and a fresh
  // permissive scheduler executes the probe.
  EXPECT_FALSE(scheduler.Submit(session, "SELECT 1").ok());
  QueryScheduler ok_sched;
  auto f = ok_sched.Submit(session, "SELECT COUNT(*) FROM Orders");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto probe = f.take().get();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.value().Get(0, 0).int_val(), 5);
}

TEST_F(FaultInjectionTest, NetFaultPointsFailCleanly) {
  // Each net.* fault point, injected in turn, must terminate the affected
  // connection with a documented status (clean Error frame or clean close
  // — never a hang or a half-written frame), and the server must keep
  // serving healthy clients afterwards.
  auto& fi = FaultInjector::Instance();
  EngineOptions engine_options;
  engine_options.enable_plan_cache = true;
  Engine db(engine_options);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (x INTEGER); "
                         "INSERT INTO T VALUES (1), (2), (3)")
                  .ok());
  net::ServerOptions server_options;
  server_options.admin_port = 0;  // cover the admin plane in the sweep too
  net::MsqldServer server(&db, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto probe_healthy = [&](const char* who) {
    net::Client client;
    net::ClientOptions options;
    options.user = who;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), options).ok())
        << "server unhealthy after fault (" << who << ")";
    auto r = client.Query("SELECT COUNT(*) FROM T");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().Get(0, 0).int_val(), 3);
  };

  // net.accept: the connection is refused with a clean close before the
  // handshake; the acceptor keeps running.
  {
    fi.ArmSite("net.accept", 1);
    net::Client victim;
    net::ClientOptions options;
    options.user = "victim";
    options.io_timeout_ms = 5000;
    Status st = victim.Connect("127.0.0.1", server.port(), options);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(fi.fired_site(), "net.accept");
    fi.Reset();
    probe_healthy("after-accept");
  }

  // net.read_frame: the parsed frame is answered with an Error frame
  // carrying the injected fault, then the connection closes cleanly.
  {
    net::Client victim;
    net::ClientOptions options;
    options.user = "victim";
    options.io_timeout_ms = 5000;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), options).ok());
    fi.ArmSite("net.read_frame", 1);
    auto r = victim.Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("injected fault"), std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(fi.fired_site(), "net.read_frame");
    fi.Reset();
    probe_healthy("after-read");
  }

  // net.write_frame: the flush aborts before any bytes go out — the
  // client observes a clean close (kIo), never a torn frame.
  {
    net::Client victim;
    net::ClientOptions options;
    options.user = "victim";
    options.io_timeout_ms = 5000;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), options).ok());
    fi.ArmSite("net.write_frame", 1);
    auto r = victim.Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kIo) << r.status().ToString();
    fi.Reset();
    probe_healthy("after-write");
  }

  // runtime.admission_wait: a wire Query fails in admission with a clean
  // Error frame; the connection and the server keep serving.
  {
    net::Client victim;
    net::ClientOptions options;
    options.user = "victim";
    options.io_timeout_ms = 5000;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), options).ok());
    fi.ArmSite("runtime.admission_wait", 1);
    auto r = victim.Query("SELECT COUNT(*) FROM T");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("injected fault"), std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(fi.fired_site(), "runtime.admission_wait");
    fi.Reset();
    auto again = victim.Query("SELECT COUNT(*) FROM T");
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().Get(0, 0).int_val(), 3);
    probe_healthy("after-admission");
  }

  // net.plan_cache_fill: the cache fill fails inside Prepare; the client
  // receives the injected fault as a typed Error and the connection
  // remains usable.
  {
    net::Client victim;
    net::ClientOptions options;
    options.user = "victim";
    options.io_timeout_ms = 5000;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), options).ok());
    fi.ArmSite("net.plan_cache_fill", 1);
    auto stmt = victim.Prepare("SELECT x FROM T WHERE x > ?",
                               {TypeKind::kInt64});
    ASSERT_FALSE(stmt.ok());
    EXPECT_NE(stmt.status().message().find("injected fault"),
              std::string::npos)
        << stmt.status().ToString();
    EXPECT_EQ(fi.fired_site(), "net.plan_cache_fill");
    fi.Reset();
    // Same connection retries successfully once the fault clears.
    auto retry = victim.Prepare("SELECT x FROM T WHERE x > ?",
                                {TypeKind::kInt64});
    EXPECT_TRUE(retry.ok()) << retry.status().ToString();
    probe_healthy("after-fill");
  }

  // net.admin_http: admin-plane failures degrade to a dropped scrape plus
  // the error counter — they never touch the query path. The point is
  // checked twice per request (accept, then response write), so hit 1
  // exercises the accept path and hit 2 the write path.
  {
    auto http_get = [&](const std::string& path) {
      std::string response;
      auto sock = net::ConnectTo("127.0.0.1", server.admin_port(), 2000);
      if (!sock.ok()) return response;
      const std::string request =
          "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
      if (!net::WriteAll(sock.value().fd(), request.data(), request.size(),
                         2000)
               .ok()) {
        return response;
      }
      char buf[2048];
      while (true) {
        pollfd pfd{sock.value().fd(), POLLIN, 0};
        if (poll(&pfd, 1, 2000) <= 0) break;
        const ssize_t got = ::recv(sock.value().fd(), buf, sizeof(buf), 0);
        if (got <= 0) break;
        response.append(buf, static_cast<size_t>(got));
      }
      return response;
    };

    fi.ArmSite("net.admin_http", 1);  // accept path
    EXPECT_TRUE(http_get("/metrics").empty());
    EXPECT_EQ(fi.fired_site(), "net.admin_http");
    fi.Reset();
    probe_healthy("during-admin-fault");

    fi.ArmSite("net.admin_http", 2);  // write path
    EXPECT_TRUE(http_get("/healthz").empty());
    EXPECT_EQ(fi.fired_site(), "net.admin_http");
    fi.Reset();
    probe_healthy("after-admin-fault");

    // Both failures were counted; a clean scrape works again.
    const std::string scrape = http_get("/metrics");
    EXPECT_NE(scrape.find("msql_net_admin_errors_total 2"),
              std::string::npos)
        << scrape.substr(0, 400);
  }

  server.Stop();
}

TEST_F(FaultInjectionTest, EngineSurvivesMidWorkloadFault) {
  // Same engine, not a fresh one: a fault in one statement must not poison
  // later statements on the same engine instance.
  auto& fi = FaultInjector::Instance();
  Engine db;
  ASSERT_TRUE(db.ImportCsv("Orders", csv_path_).ok());
  ASSERT_TRUE(
      db.Execute(
            "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders")
          .ok());

  fi.ArmAt(1);  // next checkpoint fires
  auto failed = db.Query("SELECT prodName, AGGREGATE(r) FROM EO "
                         "GROUP BY prodName");
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("injected fault"),
            std::string::npos)
      << failed.status().ToString();
  fi.Reset();

  auto ok = db.Query("SELECT prodName, AGGREGATE(r) AS v FROM EO "
                     "GROUP BY prodName ORDER BY prodName");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok.value().num_rows(), 3u);
  EXPECT_EQ(ok.value().Get(0, "v").int_val(), 5);    // Acme
  EXPECT_EQ(ok.value().Get(1, "v").int_val(), 17);   // Happy: 6 + 7 + 4
  EXPECT_EQ(ok.value().Get(2, "v").int_val(), 3);    // Whizz
}

}  // namespace
}  // namespace msql
