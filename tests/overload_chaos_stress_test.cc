// Overload chaos test (stress label): several sessions sustain an
// over-capacity submission stream while the fault injector fails every
// grouped-index build, with deadlines and cancellation mixed in. The
// system must not deadlock, must resolve every submission (no lost
// completions), every terminal status must be one of the documented
// admission/execution codes, and a failed grouped-index build must degrade
// its query to the scan path with the unfaulted answer, never fail it
// (docs/ROBUSTNESS.md).
//
// Determinism: the fault fires on a fixed named site with a fixed budget,
// and every assertion is about invariants
// (status sets, conservation of completions, fallback counts, answers),
// not about timing. On failure the test writes a repro artifact (the
// configuration plus the observed status tally) to
// $MSQL_CHAOS_REPRO_DIR (default ./overload-chaos-repros), which CI
// uploads.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"
#include "testing/compare.h"

namespace msql {
namespace {

constexpr int kSessions = 4;
constexpr int kQueriesPerSession = 40;
constexpr int64_t kFaultBudget = 8;  // grouped builds that will fail

void SeedSchema(Engine* db) {
  ASSERT_TRUE(db->Execute(
                    "CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR,"
                    " revenue INTEGER)")
                  .ok());
  std::vector<Row> rows;
  const char* prods[] = {"Happy", "Acme", "Whizz"};
  const char* custs[] = {"Alice", "Bob", "Celia"};
  for (int i = 0; i < 300; ++i) {
    rows.push_back({Value::String(prods[i % 3]), Value::String(custs[i % 3]),
                    Value::Int(i % 17)});
  }
  ASSERT_TRUE(db->InsertRows("Orders", std::move(rows)).ok());
  ASSERT_TRUE(db->Execute("CREATE VIEW EO AS SELECT *, SUM(revenue) AS "
                          "MEASURE r FROM Orders")
                  .ok());
}

// Grouped-strategy measure queries: every evaluation crosses the
// grouped-index build checkpoint (unless served from the shared cache).
const char* kWorkload[] = {
    "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName",
    "SELECT custName, r AS v FROM EO GROUP BY custName",
    "SELECT prodName, AGGREGATE(r) / (r AT (ALL)) FROM EO GROUP BY prodName",
    "SELECT COUNT(*) FROM Orders",
};
constexpr int kWorkloadSize = sizeof(kWorkload) / sizeof(kWorkload[0]);

// A bare-measure grouped query always evaluates through the grouped index
// (no row-id fast path), so it reliably crosses the
// measure.grouped_index_build checkpoint when the cache is cold.
const char* kBuildQuery =
    "SELECT prodName, r AS v FROM EO GROUP BY prodName";

bool IsDocumentedTerminal(ErrorCode code) {
  return code == ErrorCode::kOk || code == ErrorCode::kCancelled ||
         code == ErrorCode::kResourceExhausted ||
         code == ErrorCode::kDeadlineExceeded;
}

void WriteReproArtifact(const std::map<std::string, int64_t>& tally,
                        int64_t fallbacks) {
  const char* env = std::getenv("MSQL_CHAOS_REPRO_DIR");
  std::filesystem::path dir = env != nullptr && *env != '\0'
                                  ? std::filesystem::path(env)
                                  : std::filesystem::path(
                                        "overload-chaos-repros");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir / "overload_chaos_repro.json");
  out << "{\n  \"test\": \"OverloadChaosStressTest\",\n"
      << "  \"sessions\": " << kSessions << ",\n"
      << "  \"queries_per_session\": " << kQueriesPerSession << ",\n"
      << "  \"fault_site\": \"measure.grouped_index_build\",\n"
      << "  \"fault_budget\": " << kFaultBudget << ",\n"
      << "  \"grouped_fallbacks\": " << fallbacks << ",\n"
      << "  \"statuses\": {\n";
  bool first = true;
  for (const auto& [label, count] : tally) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << label << "\": " << count;
  }
  out << "\n  }\n}\n";
}

TEST(OverloadChaosStressTest, SurvivesOverloadWithGroupedBuildFaults) {
  auto& fi = FaultInjector::Instance();
  fi.Reset();

  EngineOptions eopts;
  eopts.measure_strategy = MeasureStrategy::kGrouped;
  Engine db(eopts);
  SeedSchema(&db);

  SchedulerOptions sopts;
  sopts.num_threads = 2;
  sopts.max_pending = 4;  // well under the offered load
  sopts.admission.max_admission_wait_ms = 5;  // sheds are in the scenario
  QueryScheduler scheduler(sopts);

  std::vector<SessionPtr> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(db.CreateSession());
  // Session 1 runs on a tight budget: its queries may exhaust their
  // deadline while queued or mid-execution.
  sessions[1]->options().timeout_ms = 2;

  // Every grouped-index build fails until the budget is spent.
  fi.ArmSite("measure.grouped_index_build", kFaultBudget);

  std::mutex tally_mu;
  std::map<std::string, int64_t> tally;
  std::atomic<int64_t> submissions{0};
  std::atomic<int64_t> completions{0};
  std::atomic<bool> bad_code{false};

  auto record = [&](const Status& status) {
    completions.fetch_add(1, std::memory_order_relaxed);
    if (!IsDocumentedTerminal(status.code())) {
      bad_code.store(true, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(tally_mu);
    ++tally[status.ok() ? "ok" : ErrorCodeName(status.code())];
  };

  std::vector<std::thread> submitters;
  for (int s = 0; s < kSessions; ++s) {
    submitters.emplace_back([&, s] {
      SessionPtr session = sessions[s];
      std::vector<QueryScheduler::QueryFuture> futures;
      for (int i = 0; i < kQueriesPerSession; ++i) {
        submissions.fetch_add(1, std::memory_order_relaxed);
        auto f =
            scheduler.Submit(session, kWorkload[(s + i) % kWorkloadSize]);
        if (f.ok()) {
          futures.push_back(f.take());
        } else {
          record(f.status());  // shed at admission still counts
        }
        // Session 2 cancels itself partway through the stream: queued
        // statements must flush with kCancelled, later ones are unaffected.
        if (s == 2 && i == kQueriesPerSession / 2) session->Cancel();
      }
      for (auto& f : futures) record(f.get().status());
    });
  }
  for (auto& t : submitters) t.join();
  scheduler.Drain();  // must return: no deadlock, no stuck completions

  // Conservation: every submission resolved exactly once.
  EXPECT_EQ(completions.load(), submissions.load());
  EXPECT_EQ(completions.load(), kSessions * kQueriesPerSession);
  EXPECT_EQ(scheduler.pending(), 0u);
  for (auto& session : sessions) EXPECT_EQ(session->inflight(), 0);
  EXPECT_FALSE(bad_code.load()) << "an undocumented terminal status escaped";

  {
    std::lock_guard<std::mutex> lock(tally_mu);
    EXPECT_GT(tally["ok"], 0);
  }
  // The faults armed for the concurrent phase fired, and each degraded its
  // query to the scan path instead of failing it.
  EXPECT_GT(db.stats().measure_grouped_fallbacks, 0u)
      << "no grouped-index build degraded under load";

  // Degrades, never fails: each round fails the next grouped-index build
  // and compares the degraded answer with an unfaulted engine's. A
  // degraded query publishes its scan-path measure values to the shared
  // cache, so each round INSERTs first (invalidating the cache) to force a
  // fresh build attempt. `naive` mirrors the inserts for the final probe.
  Engine ref(eopts);
  SeedSchema(&ref);
  EngineOptions naive_opts;
  naive_opts.measure_strategy = MeasureStrategy::kNaive;
  Engine naive(naive_opts);
  SeedSchema(&naive);
  for (int round = 0; round < 4; ++round) {
    const char* insert = "INSERT INTO Orders VALUES ('Happy','Alice',1)";
    ASSERT_TRUE(db.Execute(insert).ok());
    ASSERT_TRUE(ref.Execute(insert).ok());
    ASSERT_TRUE(naive.Execute(insert).ok());
    fi.Reset();
    auto want = ref.Query(kBuildQuery);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    fi.ArmSite("measure.grouped_index_build", 1);
    const uint64_t fallbacks_before = db.stats().measure_grouped_fallbacks;
    auto got = db.Query(kBuildQuery);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(db.stats().measure_grouped_fallbacks, fallbacks_before)
        << "round " << round << ": the armed build did not degrade";
    const auto diff = testing::DiffResults(got.value(), want.value());
    EXPECT_FALSE(diff.has_value()) << "round " << round << ": " << *diff;
  }

  // Post-chaos correctness probe, with the fault cleared, against an
  // engine on the naive strategy (an independent evaluation path).
  fi.Reset();
  const char* probe = "SELECT prodName, AGGREGATE(r) AS v FROM EO "
                      "GROUP BY prodName ORDER BY prodName";
  auto got = db.Query(probe);
  auto want = naive.Query(probe);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(got.value().ToCsv(), want.value().ToCsv());

  if (::testing::Test::HasFailure()) {
    WriteReproArtifact(tally, db.stats().measure_grouped_fallbacks);
  }
  fi.Reset();
}

// A second, shorter scenario: sustained overload with no faults at all
// must shed cleanly (kResourceExhausted / kDeadlineExceeded only, plus
// successes) and degrade nothing — overload alone is not a build failure.
TEST(OverloadChaosStressTest, PureOverloadShedsCleanlyWithoutDegrading) {
  FaultInjector::Instance().Reset();
  EngineOptions eopts;
  eopts.measure_strategy = MeasureStrategy::kGrouped;
  Engine db(eopts);
  SeedSchema(&db);
  SchedulerOptions sopts;
  sopts.num_threads = 2;
  sopts.max_pending = 2;
  sopts.admission.max_admission_wait_ms = 1;
  QueryScheduler scheduler(sopts);
  SessionPtr session = db.CreateSession();

  int64_t ok = 0, shed = 0, other = 0;
  std::vector<QueryScheduler::QueryFuture> futures;
  for (int i = 0; i < 200; ++i) {
    auto f = scheduler.Submit(session, kWorkload[i % kWorkloadSize]);
    if (f.ok()) {
      futures.push_back(f.take());
    } else if (f.status().code() == ErrorCode::kResourceExhausted) {
      ++shed;
    } else {
      ++other;
    }
  }
  for (auto& f : futures) {
    auto r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ++other;
    }
  }
  scheduler.Drain();
  EXPECT_GT(ok, 0);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(ok + shed, 200);  // conservation: every submission accounted for
  EXPECT_EQ(db.stats().measure_grouped_fallbacks, 0u);
}

}  // namespace
}  // namespace msql
