#ifndef MSQL_ENGINE_ENGINE_H_
#define MSQL_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/system_tables.h"
#include "common/query_guard.h"
#include "common/query_stats.h"
#include "common/status.h"
#include "engine/result_set.h"
#include "exec/exec_state.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/plan_cache.h"
#include "runtime/shared_cache.h"
#include "runtime/thread_pool.h"

namespace msql {

class Session;
using SessionPtr = std::shared_ptr<Session>;

// Everything one statement needs from its caller: an option snapshot, the
// user it runs as, and its cancellation token. Sessions build one per
// query; the engine-level convenience API snapshots its own options/user.
// Taking options by value is what makes concurrent queries with different
// settings (strategy ablations, per-session budgets) race-free.
struct QueryContext {
  EngineOptions options;
  std::string user;
  CancelTokenPtr cancel;

  // Observability (docs/OBSERVABILITY.md). `session_id` labels traces (0 =
  // engine-level call); `queue_wait_us` is filled by the scheduler so the
  // trace records its queue time; `trace` is set internally by the engine
  // when `options.enable_tracing` is on.
  uint64_t session_id = 0;
  int64_t queue_wait_us = 0;
  obs::QueryTrace* trace = nullptr;

  // Wire trace context (docs/NETWORKING.md): the client-supplied
  // correlation id and the connection identity ("ip:port#connid"), both
  // copied onto the QueryTrace so server-side traces carry who asked.
  // Empty for embedded queries.
  std::string trace_id;
  std::string peer;

  // Overload resilience (docs/ROBUSTNESS.md). `admission_wait_us` is how
  // long the submission waited in bounded-wait admission (rate limit +
  // pending slot), recorded as its own trace span. When `has_deadline` is
  // set, the scheduler stamped an absolute deadline at submission;
  // RunSelect tightens the query guard to it so queue wait, measure
  // expansion and execution all charge one budget (kDeadlineExceeded).
  int64_t admission_wait_us = 0;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  // The Engine::CancelAll generation at admission, set by the scheduler so
  // a CancelAll after admission but before the guard is armed (during
  // parse or bind) still cancels the statement.
  std::optional<uint64_t> cancel_generation;

  // Plan-cache alias key (docs/NETWORKING.md): the trimmed raw statement
  // text, set by Engine::Query when the cache is enabled and the call is a
  // single SELECT, so the bound plan is indexed under the exact client
  // text as well as its canonical unparse. Internal plumbing; leave empty.
  std::string plan_cache_text;
};

// Engine-wide execution statistics, aggregated atomically across every
// query on every session/thread: the per-query counters (QueryCounters)
// summed over all queries, plus the SharedMeasureCache's own counters for
// one-stop monitoring. Backed by the MetricsRegistry (Engine::metrics());
// this struct remains as a convenient programmatic snapshot.
struct EngineStats : QueryCounters {
  uint64_t queries = 0;
  uint64_t shared_cache_insertions = 0;
  uint64_t shared_cache_evictions = 0;
  uint64_t shared_cache_entries = 0;
  uint64_t shared_cache_bytes = 0;
};

// The public entry point: an in-memory SQL engine implementing the msql
// dialect — a practical SQL subset extended with the measure features of
// "Measures in SQL" (Hyde & Fremlin, SIGMOD-Companion 2024): AS MEASURE,
// AGGREGATE, AT (ALL / SET / VISIBLE / WHERE), CURRENT.
//
//   msql::Engine db;
//   db.Execute("CREATE TABLE Orders (prodName VARCHAR, revenue INT)");
//   db.Execute("INSERT INTO Orders VALUES ('Happy', 6), ('Acme', 5)");
//   db.Execute("CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r "
//              "FROM Orders");
//   auto rs = db.Query("SELECT prodName, AGGREGATE(r) FROM EO "
//                      "GROUP BY prodName");
//
// Concurrency (docs/CONCURRENCY.md): N threads may call Query/Execute —
// directly or through per-client Sessions (CreateSession) — while others
// run DDL/DML. Queries read catalog and table-data snapshots, so a scan
// never races an INSERT; measure and subquery results are shared across
// queries through a bounded, generation-invalidated SharedMeasureCache.
// The only single-threaded affordances are the mutable `options()` /
// `SetUser` engine-level defaults; per-query statistics travel with each
// result (ResultSet::stats()).
//
// Observability (docs/OBSERVABILITY.md): with options().enable_tracing set,
// every statement produces a QueryTrace of nested phase spans, retained in
// a ring buffer (RecentTraces()) and optionally appended to a JSON
// slow-query log. EXPLAIN ANALYZE <select> runs the statement and renders
// its plan annotated with per-operator rows/time/cache stats. MetricsText()
// exposes engine counters, gauges and histograms in Prometheus text format.
class Engine {
 public:
  Engine() { InitObs(); }
  explicit Engine(EngineOptions options) : options_(std::move(options)) {
    InitObs();
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs one or more ';'-separated statements, discarding row results.
  Status Execute(const std::string& sql);

  // Runs a single statement and returns its result set (empty for DDL/DML).
  Result<ResultSet> Query(const std::string& sql);

  // As Query, but the statement observes `cancel`: calling Cancel() on the
  // token from any thread makes the query unwind with kCancelled at its
  // next guard checkpoint. Tokens are single-use handles created with
  // NewCancelToken(); a null token behaves like plain Query.
  Result<ResultSet> Query(const std::string& sql, CancelTokenPtr cancel);

  // Fully-specified variants; the building blocks for Session.
  Result<ResultSet> QueryWith(const std::string& sql, const QueryContext& ctx);
  Status ExecuteWith(const std::string& sql, const QueryContext& ctx);

  // Prepared statements (docs/NETWORKING.md). PrepareSelect parses and
  // binds a single SELECT whose positional `?` parameters have the
  // declared `param_types` (ordinal order), returning an immutable bound,
  // measure-expanded plan. With enable_plan_cache set the plan is also
  // published to the engine's PlanCache (guard-charged against the
  // context's memory budget), keyed by (user, text, parameter types) plus
  // a canonical-unparse alias, so identical statements prepared on other
  // connections skip parse/bind entirely.
  Result<PreparedPlanPtr> PrepareSelect(const std::string& sql,
                                        std::vector<TypeKind> param_types,
                                        const QueryContext& ctx);
  Result<PreparedPlanPtr> PrepareSelect(const std::string& sql,
                                        std::vector<TypeKind> param_types) {
    return PrepareSelect(sql, std::move(param_types), DefaultContext(nullptr));
  }

  // Executes a prepared plan with `params` bound to its `?` placeholders
  // (values are coerced to the declared types; a mismatch is a typed
  // kInvalidArgument). Fails with kCatalog when the plan was bound against
  // an older catalog generation — the caller re-prepares; the server does
  // this transparently.
  Result<ResultSet> QueryPlanned(const PreparedPlanPtr& prepared,
                                 const Row& params, const QueryContext& ctx);
  Result<ResultSet> QueryPlanned(const PreparedPlanPtr& prepared,
                                 const Row& params) {
    return QueryPlanned(prepared, params, DefaultContext(nullptr));
  }

  // The prepared-plan cache (sized from EngineOptions plan_cache_* at
  // construction). Exposed for monitoring and tests.
  PlanCache& plan_cache() { return plan_cache_; }

  // Creates an independent client session: its own option snapshot, user,
  // and cancellation scope, sharing this engine's catalog and cross-query
  // cache. Sessions may issue queries concurrently with each other and
  // with engine-level calls. The engine must outlive its sessions.
  SessionPtr CreateSession();

  // As CreateSession, but authenticated as `user` instead of the engine's
  // default — one per accepted msqld connection. Sessions are counted per
  // user while alive (ActiveSessionsForUser), which the server uses for
  // per-user connection caps and operators for attribution.
  SessionPtr CreateSessionForUser(std::string user);

  // Live sessions currently authenticated as `user` (created by either
  // CreateSession or CreateSessionForUser).
  int ActiveSessionsForUser(const std::string& user) const;

  // Creates a cancellation token to pass to Query.
  static CancelTokenPtr NewCancelToken() {
    return std::make_shared<CancelToken>();
  }

  // Cancels every statement currently executing on this engine (from any
  // thread, across all sessions); each unwinds with kCancelled. Statements
  // started after the call are unaffected.
  void CancelAll() {
    cancel_generation_->fetch_add(1, std::memory_order_relaxed);
  }

  // Binds a SELECT and renders its logical plan, including per-node
  // measure-expansion notes (the same renderer EXPLAIN ANALYZE annotates).
  Result<std::string> Explain(const std::string& sql);

  // Expands every measure reference in a SELECT into plain SQL (correlated
  // scalar subqueries, paper section 4.2) and returns the rewritten text.
  Result<std::string> ExpandSql(const std::string& sql);

  // Bulk-appends rows to a base table, coercing values to column types.
  // Used by benchmarks and programmatic loaders to bypass SQL parsing.
  Status InsertRows(const std::string& table, std::vector<Row> rows);

  // CSV interop. LoadCsv appends to an existing table, coercing field
  // strings to the column types. ImportCsv creates the table first,
  // inferring column types from the data.
  Status LoadCsv(const std::string& table, const std::string& path,
                 bool header = true);
  Status ImportCsv(const std::string& table, const std::string& path);

  // Security (paper section 5.5): with a current user set, referencing an
  // object requires ownership or a grant; views run with definer's rights.
  void SetUser(std::string user) { user_ = std::move(user); }
  const std::string& user() const { return user_; }
  Status Grant(const std::string& object, const std::string& user);

  EngineOptions& options() { return options_; }
  const Catalog& catalog() const { return catalog_; }

  // Engine-wide counters, aggregated atomically across all sessions and
  // threads. Safe to read at any time.
  EngineStats stats() const;

  // The engine's metric registry: counters, gauges and histograms with
  // stable pointers for lock-free updates. Safe to use from any thread.
  obs::MetricsRegistry& metrics() { return metrics_; }

  // Prometheus-style text exposition of every registered metric, after
  // syncing the SharedMeasureCache counters/gauges into the registry.
  std::string MetricsText();

  // The last N traces (newest first) of queries run with tracing enabled;
  // N is EngineOptions::trace_ring_capacity at engine construction.
  std::vector<obs::TracePtr> RecentTraces() const;

  // Registers an additional trace sink (monitoring exporters, tests). The
  // collector already owns the ring buffer and, when configured, the
  // slow-query log. Sink failures never fail queries; they increment
  // msql_obs_sink_errors_total.
  void AddTraceSink(std::shared_ptr<obs::TraceSink> sink);

  // The cross-query measure/subquery cache (docs/CONCURRENCY.md). Exposed
  // for sizing (set_max_bytes) and monitoring.
  SharedMeasureCache& shared_cache() { return shared_cache_; }

  // The `msql_system.*` virtual-table registry. The engine pre-registers
  // msql_system.metrics and msql_system.queries; msqld adds
  // msql_system.connections. Binding only consults it when
  // EngineOptions::enable_system_tables is on.
  SystemTableRegistry& system_tables() { return system_tables_; }

 private:
  friend class Session;
  friend class QueryScheduler;  // admission: cancel generation snapshots

  Status ExecuteStmt(const Stmt& stmt, ResultSet* out,
                     const QueryContext& ctx);
  Status ExecuteInsert(const Stmt& stmt, const QueryContext& ctx);
  Result<ResultSet> RunSelect(const SelectStmt& select, const QueryContext& ctx,
                              PlanPtr* plan_out = nullptr,
                              obs::PlanProfile* profile = nullptr);
  Result<ResultSet> RunSelectImpl(const SelectStmt& select,
                                  const QueryContext& ctx, ExecState* state,
                                  PlanPtr* plan_out);

  // The arm-guard + execute + render tail shared by the text and prepared
  // paths. `after_arm`, when set, runs inside the plan span right after the
  // guard is armed (the guard-charged plan-cache fill).
  Result<ResultSet> ExecutePlanImpl(const PlanPtr& plan,
                                    const QueryContext& ctx, ExecState* state,
                                    const std::function<Status()>& after_arm);

  // Stats/metrics wrapper shared by RunSelect and the prepared path:
  // snapshots `state` into QueryStats, attaches them to the result and
  // trace, and folds the counters into the registry.
  Result<ResultSet> FinishSelect(const QueryContext& ctx,
                                 const ExecState& state, int64_t total_us,
                                 Result<ResultSet> result);

  // Prepared execution body (QueryPlanned minus tracing dispatch).
  Result<ResultSet> RunPlanned(const PreparedPlanPtr& prepared,
                               const Row& params, const QueryContext& ctx);

  // Traced variants of QueryWith/ExecuteWith: wrap parsing and execution in
  // a QueryTrace and publish it to the sinks on completion.
  Result<ResultSet> QueryTraced(const std::string& sql,
                                const QueryContext& ctx);
  Status ExecuteTraced(const std::string& sql, const QueryContext& ctx);
  void FinishTrace(std::shared_ptr<obs::QueryTrace> trace, const Status& st,
                   uint64_t rows_returned);

  // Engine-level calls snapshot the mutable defaults into a context.
  QueryContext DefaultContext(CancelTokenPtr cancel) const {
    QueryContext ctx;
    ctx.options = options_;
    ctx.user = user_;
    ctx.cancel = std::move(cancel);
    return ctx;
  }

  // Registers the engine's metrics (caching the instrument pointers) and
  // installs the built-in trace sinks.
  void InitObs();

  // Registers the built-in msql_system.metrics / msql_system.queries
  // providers (called from InitObs).
  void RegisterBuiltinSystemTables();

  // The cache-counter folding shared by MetricsText() and the
  // msql_system.metrics provider.
  void SyncCacheMetrics();

  // The registry pointer handed to binders: null unless the context opted
  // into system tables, which is what keeps the disabled path free.
  const SystemTableRegistry* SystemTablesFor(const EngineOptions& o) const {
    return o.enable_system_tables ? &system_tables_ : nullptr;
  }

  // Folds a finished query's counters into the metrics registry.
  void AccumulateStats(const ExecState& state);

  // Worker pool for morsel-parallel grouped measure evaluation, created
  // lazily on the first query that has a parallel-eligible index build or
  // probe batch — small queries never pay for thread spawns. Sized once
  // from the hardware; per-query width is capped separately with
  // EngineOptions::measure_parallelism. Distinct from the sessions'
  // QueryScheduler pool: queries block on this pool's results, so sharing
  // would deadlock a fully-loaded scheduler.
  ThreadPool* MeasurePool();

  // Called after any DML/DDL: bumps the data generation and drops
  // cross-query cache entries computed against older data.
  void NoteCatalogMutation();

  // Session lifecycle accounting (msql_sessions_active + per-user counts).
  void NoteSessionDestroyed(const std::string& user);

  Catalog catalog_;
  EngineOptions options_;
  std::string user_;
  SystemTableRegistry system_tables_;
  SharedMeasureCache shared_cache_;
  PlanCache plan_cache_{options_.plan_cache_max_entries,
                        options_.plan_cache_max_bytes};

  std::mutex measure_pool_mu_;
  std::unique_ptr<ThreadPool> measure_pool_;

  // Observability. Cached instrument pointers make the per-query
  // accounting lock-free (registration happens once, in InitObs).
  obs::MetricsRegistry metrics_;
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* query_errors = nullptr;
    // Indexed like kQueryCounters (common/query_stats.h).
    obs::Counter* query_counters[kNumQueryCounters] = {};
    obs::Counter* shared_cache_insertions = nullptr;
    obs::Counter* shared_cache_evictions = nullptr;
    obs::Counter* shared_cache_invalidations = nullptr;
    obs::Counter* sessions_created = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Counter* obs_sink_errors = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* plan_cache_misses = nullptr;
    obs::Counter* plan_cache_evictions = nullptr;
    obs::Counter* plan_cache_invalidations = nullptr;
    obs::Gauge* sessions_active = nullptr;
    obs::Gauge* shared_cache_entries = nullptr;
    obs::Gauge* shared_cache_bytes = nullptr;
    obs::Gauge* shared_cache_hit_ratio = nullptr;
    obs::Gauge* plan_cache_entries = nullptr;
    obs::Gauge* plan_cache_bytes = nullptr;
    obs::Histogram* query_duration_ms = nullptr;
  };
  Instruments ins_;

  obs::TraceCollector trace_collector_;
  std::shared_ptr<obs::RingBufferSink> ring_sink_;

  // MetricsText() folds SharedMeasureCache counter deltas into the
  // registry; `synced_cache_` remembers what was already folded.
  std::mutex metrics_sync_mu_;
  SharedMeasureCache::Stats synced_cache_;
  PlanCache::Stats synced_plan_cache_;

  // Snapshot of EngineOptions::slow_query_log_ms at construction, so the
  // msql_slow_queries_total counter agrees with the configured sink even if
  // options() is mutated later.
  int64_t slow_log_threshold_ms_ = -1;

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> next_query_id_{1};

  // Live-session count per authenticated user (CreateSessionForUser /
  // session destruction). A small map under its own mutex: sessions are
  // created at connection rate, not query rate.
  mutable std::mutex session_users_mu_;
  std::unordered_map<std::string, int> session_users_;

  // Cancellation plumbing: the engine-wide generation counter bumped by
  // CancelAll. Guards snapshot the generation when armed.
  std::shared_ptr<std::atomic<uint64_t>> cancel_generation_ =
      std::make_shared<std::atomic<uint64_t>>(0);
};

}  // namespace msql

#endif  // MSQL_ENGINE_ENGINE_H_
