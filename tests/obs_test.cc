// Tests for the observability layer (docs/OBSERVABILITY.md): the metrics
// registry and its Prometheus text exposition, query tracing (span nesting,
// ring-buffer retention, slow-query log JSON), per-query ResultSet stats,
// and graceful degradation when a trace sink fails.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/query_stats.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/session.h"
#include "tests/paper_fixture.h"

namespace msql {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAndGauges) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("msql_test_events_total", "events");
  ASSERT_NE(c, nullptr);
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);
  // Re-registration returns the same instrument.
  EXPECT_EQ(reg.GetCounter("msql_test_events_total"), c);

  obs::Gauge* g = reg.GetGauge("msql_test_depth", "depth");
  g->Set(2.5);
  g->Add(1.0);
  g->Add(-2.0);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  obs::MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("msql_test_events_total"), nullptr);
  EXPECT_EQ(reg.GetGauge("msql_test_events_total"), nullptr);
  EXPECT_EQ(reg.GetHistogram("msql_test_events_total", "", {1.0}), nullptr);
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram* h =
      reg.GetHistogram("msql_test_wait_ms", "wait", {1.0, 10.0, 100.0});
  ASSERT_NE(h, nullptr);
  h->Observe(0.5);    // <= 1
  h->Observe(1.0);    // <= 1 (bounds are inclusive)
  h->Observe(7.0);    // <= 10
  h->Observe(99.0);   // <= 100
  h->Observe(1e6);    // +Inf overflow
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 7.0 + 99.0 + 1e6);
  const std::vector<uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(MetricsRegistryTest, PrometheusTextFormat) {
  obs::MetricsRegistry reg;
  reg.GetCounter("msql_test_events_total", "Number of events")->Increment(3);
  reg.GetGauge("msql_test_depth", "Current depth")->Set(2);
  obs::Histogram* h = reg.GetHistogram("msql_test_wait_ms", "Wait", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5000.0);

  const std::string text = reg.Text();
  EXPECT_NE(text.find("# HELP msql_test_events_total Number of events"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE msql_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("msql_test_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msql_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msql_test_wait_ms histogram"),
            std::string::npos);
  // Cumulative buckets: the +Inf bucket equals the count.
  EXPECT_NE(text.find("msql_test_wait_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("msql_test_wait_ms_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("msql_test_wait_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("msql_test_wait_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("msql_test_wait_ms_sum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.options().enable_tracing = true;
    LoadPaperData(&db_);
    MustExecute(&db_,
                "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r "
                "FROM Orders");
  }

  Engine db_;
};

const obs::TraceSpan* FindChild(const obs::TraceSpan& parent,
                                const char* name) {
  for (const auto& child : parent.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

TEST_F(ObsTraceTest, SpansNestByPhase) {
  MustQuery(&db_, "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
  auto traces = db_.RecentTraces();
  ASSERT_FALSE(traces.empty());
  const obs::TracePtr& trace = traces[0];  // newest first
  EXPECT_TRUE(trace->ok());
  EXPECT_EQ(trace->rows_returned(), 3u);
  EXPECT_GT(trace->total_us(), 0);

  const obs::TraceSpan& root = trace->root();
  EXPECT_EQ(root.name, "query");
  const char* phases[] = {"parse", "bind", "measure-expand", "plan",
                          "execute", "render"};
  for (const char* phase : phases) {
    EXPECT_NE(FindChild(root, phase), nullptr) << "missing span " << phase;
  }
  // Phases completed cleanly and appear in pipeline order.
  std::vector<std::string> order;
  for (const auto& child : root.children) {
    EXPECT_TRUE(child->outcome.empty()) << child->name << ": "
                                        << child->outcome;
    order.push_back(child->name);
  }
  EXPECT_LT(std::find(order.begin(), order.end(), "parse") - order.begin(),
            std::find(order.begin(), order.end(), "execute") - order.begin());
  // The execute span charged guard memory.
  EXPECT_GT(FindChild(root, "execute")->guard_bytes, 0u);
}

TEST_F(ObsTraceTest, FailedQueryTraceCarriesOutcome) {
  auto r = db_.Query("SELECT nonexistent FROM EO");
  ASSERT_FALSE(r.ok());
  auto traces = db_.RecentTraces();
  ASSERT_FALSE(traces.empty());
  EXPECT_FALSE(traces[0]->ok());
  EXPECT_EQ(traces[0]->error_code(), ErrorCode::kBind);
  const obs::TraceSpan* bind = FindChild(traces[0]->root(), "bind");
  ASSERT_NE(bind, nullptr);
  EXPECT_EQ(bind->outcome, ErrorCodeName(ErrorCode::kBind));
}

TEST(ObsRingTest, RingBufferEvictsOldest) {
  EngineOptions options;
  options.enable_tracing = true;
  options.trace_ring_capacity = 2;
  Engine db(options);
  LoadPaperData(&db);
  MustQuery(&db, "SELECT 1");
  MustQuery(&db, "SELECT 2");
  MustQuery(&db, "SELECT 3");
  auto traces = db.RecentTraces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0]->sql(), "SELECT 3");  // newest first
  EXPECT_EQ(traces[1]->sql(), "SELECT 2");
  // Ids are monotonically increasing.
  EXPECT_GT(traces[0]->id(), traces[1]->id());
}

TEST_F(ObsTraceTest, PerQueryStatsTravelWithResult) {
  auto r = db_.Query(
      "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().stats(), nullptr);
  const QueryStats& stats = *r.value().stats();
  EXPECT_GT(stats.measure_evals, 0u);
  EXPECT_GT(stats.rows_charged, 0u);
  EXPECT_GT(stats.bytes_charged, 0u);
  EXPECT_EQ(stats.depth, 0);
  // The trace carries the same stats.
  auto traces = db_.RecentTraces();
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces[0]->stats().measure_evals, stats.measure_evals);
}

TEST_F(ObsTraceTest, SlowQueryLogWritesJson) {
  auto stream = std::make_shared<std::ostringstream>();
  // Threshold 0: every traced query is logged.
  struct StreamKeeper : obs::SlowQueryLogSink {
    explicit StreamKeeper(std::shared_ptr<std::ostringstream> s)
        : obs::SlowQueryLogSink(0, s.get()), stream(std::move(s)) {}
    std::shared_ptr<std::ostringstream> stream;
  };
  db_.AddTraceSink(std::make_shared<StreamKeeper>(stream));
  MustQuery(&db_, "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName");
  const std::string line = stream->str();
  EXPECT_NE(line.find("\"sql\""), std::string::npos);
  EXPECT_NE(line.find("\"spans\""), std::string::npos);
  EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"stats\""), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST_F(ObsTraceTest, FailingSinkDoesNotFailQueries) {
  struct FailingSink : obs::TraceSink {
    Status Emit(const obs::TracePtr&) override {
      return Status(ErrorCode::kIo, "sink unavailable");
    }
  };
  db_.AddTraceSink(std::make_shared<FailingSink>());
  obs::Counter* errors =
      db_.metrics().GetCounter("msql_obs_sink_errors_total");
  ASSERT_NE(errors, nullptr);
  const uint64_t before = errors->value();
  MustQuery(&db_, "SELECT prodName FROM Orders");
  EXPECT_GT(errors->value(), before);
  // The ring buffer sink still received the trace.
  ASSERT_FALSE(db_.RecentTraces().empty());
}

TEST_F(ObsTraceTest, SessionIdentityOnTraces) {
  SessionPtr session = db_.CreateSession();
  session->options().enable_tracing = true;
  ASSERT_TRUE(session->Query("SELECT 42").ok());
  auto traces = db_.RecentTraces();
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces[0]->session_id(), session->id());
}

TEST(ObsMetricsTextTest, EngineExposesCoreMetrics) {
  Engine db;
  LoadPaperData(&db);
  MustQuery(&db, "SELECT prodName FROM Orders");
  { SessionPtr s = db.CreateSession(); }
  const std::string text = db.MetricsText();
  EXPECT_NE(text.find("# TYPE msql_queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msql_query_duration_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("msql_query_duration_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE msql_sessions_active gauge"), std::string::npos);
  EXPECT_NE(text.find("msql_sessions_created_total 1"), std::string::npos);
  EXPECT_NE(text.find("msql_sessions_active 0"), std::string::npos);
  EXPECT_NE(text.find("msql_shared_cache_hit_ratio"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The per-query counter table (common/query_stats.h)
// ---------------------------------------------------------------------------

// The value of counter `name` in a Prometheus exposition, or -1 if absent.
int64_t CounterInText(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + needle.size(), nullptr, 10);
}

// Every counter in the table reaches every surface with the same value:
// the query's ResultSet::stats(), the Engine::stats() and MetricsText()
// deltas across the query, and the slow-query log's "stats" object.
TEST(ObsCounterTableTest, EveryCounterAgreesAcrossSurfaces) {
  std::ostringstream log;  // outlives the engine that writes to it
  EngineOptions opts;
  opts.enable_tracing = true;
  Engine db(opts);
  db.AddTraceSink(std::make_shared<obs::SlowQueryLogSink>(0, &log));
  MustExecute(&db,
              "CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, "
              "revenue INTEGER)");
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value::String("p" + std::to_string(i % 40)),
                    Value::String("c" + std::to_string(i % 7)),
                    Value::Int(i % 13)});
  }
  ASSERT_TRUE(db.InsertRows("Orders", std::move(rows)).ok());
  MustExecute(&db,
              "CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r "
              "FROM Orders");

  struct Step {
    const char* sql;
    bool fail_grouped_build;  // arm measure.grouped_index_build once
  };
  const Step steps[] = {
      // Inline evaluation; the repeat is served by the shared cache.
      {"SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName", false},
      {"SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName", false},
      // Grouped value-table build and lookups.
      {"SELECT prodName, r AS v FROM EO GROUP BY prodName", false},
      // A source scan and per-query memo hits.
      {"SELECT custName, AGGREGATE(r) / (r AT (ALL)) FROM EO "
       "GROUP BY custName",
       false},
      // Correlated subqueries and their memo.
      {"SELECT o.custName, (SELECT SUM(p.revenue) FROM Orders p "
       "WHERE p.custName = o.custName) FROM Orders o",
       false},
      // Plain vectorized aggregation.
      {"SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName", false},
      // A failed grouped build degrades to the scan path.
      {"SELECT custName, r AS v FROM EO GROUP BY custName", true},
  };

  QueryCounters seen;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.sql);
    if (step.fail_grouped_build) {
      FaultInjector::Instance().ArmSite("measure.grouped_index_build", 1);
    }
    const EngineStats stats_before = db.stats();
    const std::string text_before = db.MetricsText();
    log.str("");
    const ResultSet rs = MustQuery(&db, step.sql);
    FaultInjector::Instance().Reset();
    const EngineStats stats_after = db.stats();
    const std::string text_after = db.MetricsText();
    ASSERT_NE(rs.stats(), nullptr);
    const QueryStats& q = *rs.stats();

    const std::string line = log.str();
    const size_t open = line.find("\"stats\": {");
    ASSERT_NE(open, std::string::npos) << line;
    const std::string logged = line.substr(open, line.find('}', open) - open);

    for (const QueryCounterDef& c : kQueryCounters) {
      SCOPED_TRACE(c.field);
      const uint64_t value = q.*c.member;
      EXPECT_EQ(stats_after.*c.member - stats_before.*c.member, value);
      const int64_t text_now = CounterInText(text_after, c.metric);
      ASSERT_GE(text_now, 0) << c.metric << " missing from MetricsText()";
      EXPECT_EQ(static_cast<uint64_t>(text_now -
                                      CounterInText(text_before, c.metric)),
                value);
      EXPECT_NE(logged.find("\"" + std::string(c.field) +
                            "\": " + std::to_string(value)),
                std::string::npos)
          << logged;
    }
    seen.Add(q);
  }

  // The steps above reach every counter, except the parallel-task count,
  // which depends on the host's hardware threads.
  for (const QueryCounterDef& c : kQueryCounters) {
    if (c.member == &QueryCounters::measure_parallel_tasks) continue;
    EXPECT_GT(seen.*c.member, 0u) << c.field << " never moved";
  }
}

TEST(ObsDisabledTest, TracingOffLeavesRingEmpty) {
  Engine db;
  LoadPaperData(&db);
  MustQuery(&db, "SELECT prodName FROM Orders");
  EXPECT_TRUE(db.RecentTraces().empty());
  // Per-query stats are populated regardless of tracing.
  auto r = db.Query("SELECT prodName FROM Orders");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().stats(), nullptr);
}

}  // namespace
}  // namespace msql
