#include "engine/engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "binder/binder.h"
#include "catalog/csv.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "measure/cse.h"
#include "measure/expand.h"
#include "measure/grouped.h"
#include "parser/parser.h"
#include "parser/unparser.h"
#include "runtime/fingerprint.h"
#include "runtime/session.h"

namespace msql {

namespace {

int64_t ElapsedUsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Plan-cache text key normalization: strip surrounding whitespace and the
// trailing ';' so trivially different renderings of the same statement
// share one cache entry. Anything deeper (casing, internal spacing) is
// covered by the canonical-unparse alias key.
std::string TrimStatementText(const std::string& sql) {
  size_t begin = sql.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return std::string();
  size_t end = sql.find_last_not_of(" \t\r\n");
  while (end > begin && sql[end] == ';') {
    --end;
    while (end > begin && std::isspace(static_cast<unsigned char>(sql[end]))) {
      --end;
    }
  }
  return sql.substr(begin, end - begin + 1);
}

// Rendered parameter-value tuple, appended to cross-query shared-cache
// keys (ExecState::param_sig): `?` placeholders fingerprint structurally,
// so the bound values must join the key for it to stay injective.
std::string RenderParamSig(const Row& params) {
  std::string sig = "p[";
  for (const Value& v : params) {
    sig += v.ToSqlLiteral();
    sig += ',';
  }
  sig += ']';
  return sig;
}

}  // namespace

void Engine::InitObs() {
  ins_.queries = metrics_.GetCounter(
      "msql_queries_total", "SELECT statements executed");
  ins_.query_errors = metrics_.GetCounter(
      "msql_query_errors_total", "SELECT statements that returned an error");
  for (size_t i = 0; i < kNumQueryCounters; ++i) {
    ins_.query_counters[i] =
        metrics_.GetCounter(kQueryCounters[i].metric, kQueryCounters[i].help);
  }
  ins_.shared_cache_insertions = metrics_.GetCounter(
      "msql_shared_cache_insertions_total", "Cross-query shared cache fills");
  ins_.shared_cache_evictions = metrics_.GetCounter(
      "msql_shared_cache_evictions_total",
      "Cross-query shared cache entries evicted (LRU or invalidation)");
  ins_.shared_cache_invalidations = metrics_.GetCounter(
      "msql_shared_cache_invalidations_total",
      "Generation invalidations of the cross-query shared cache");
  ins_.sessions_created = metrics_.GetCounter(
      "msql_sessions_created_total", "Sessions created over engine lifetime");
  ins_.slow_queries = metrics_.GetCounter(
      "msql_slow_queries_total",
      "Traced queries at or above the slow-query threshold");
  ins_.obs_sink_errors = metrics_.GetCounter(
      "msql_obs_sink_errors_total",
      "Trace sink emissions that failed (queries are unaffected)");
  ins_.plan_cache_hits = metrics_.GetCounter(
      "msql_plan_cache_hits_total",
      "Plan cache lookups that returned a fresh bound plan");
  ins_.plan_cache_misses = metrics_.GetCounter(
      "msql_plan_cache_misses_total",
      "Plan cache lookups that required a fresh parse + bind");
  ins_.plan_cache_evictions = metrics_.GetCounter(
      "msql_plan_cache_evictions_total",
      "Prepared plans evicted from the plan cache (LRU)");
  ins_.plan_cache_invalidations = metrics_.GetCounter(
      "msql_plan_cache_invalidations_total",
      "Cached plans dropped on probe because the catalog generation moved");
  ins_.sessions_active = metrics_.GetGauge(
      "msql_sessions_active", "Sessions currently alive");
  ins_.shared_cache_entries = metrics_.GetGauge(
      "msql_shared_cache_entries", "Cross-query shared cache entries");
  ins_.shared_cache_bytes = metrics_.GetGauge(
      "msql_shared_cache_bytes", "Cross-query shared cache approximate bytes");
  ins_.shared_cache_hit_ratio = metrics_.GetGauge(
      "msql_shared_cache_hit_ratio",
      "Cross-query shared cache hits / lookups over engine lifetime");
  ins_.plan_cache_entries = metrics_.GetGauge(
      "msql_plan_cache_entries",
      "Prepared plans currently cached (alias keys counted)");
  ins_.plan_cache_bytes = metrics_.GetGauge(
      "msql_plan_cache_bytes", "Plan cache approximate bytes");
  ins_.query_duration_ms = metrics_.GetHistogram(
      "msql_query_duration_ms", "SELECT wall time",
      obs::MetricsRegistry::LatencyBucketsMs());

  // Built-in sinks. The ring buffer always exists (RecentTraces() reports
  // empty until tracing is enabled); the slow-query log only when asked.
  ring_sink_ =
      std::make_shared<obs::RingBufferSink>(options_.trace_ring_capacity);
  trace_collector_.AddSink(ring_sink_);
  slow_log_threshold_ms_ = options_.slow_query_log_ms;
  if (options_.slow_query_log_ms >= 0) {
    std::shared_ptr<obs::SlowQueryLogSink> slow;
    if (options_.slow_query_log_path.empty()) {
      slow = std::make_shared<obs::SlowQueryLogSink>(
          options_.slow_query_log_ms, &std::cerr);
    } else {
      slow = obs::SlowQueryLogSink::OpenFile(options_.slow_query_log_ms,
                                             options_.slow_query_log_path);
    }
    trace_collector_.AddSink(std::move(slow));
  }

  RegisterBuiltinSystemTables();
}

void Engine::RegisterBuiltinSystemTables() {
  // msql_system.metrics: one row per exported sample (histograms flattened
  // to _count/_sum), the SQL view of MetricsText().
  system_tables_.Register("msql_system.metrics", [this] {
    SyncCacheMetrics();
    Schema schema;
    schema.AddColumn(Column("name", DataType::String()));
    schema.AddColumn(Column("kind", DataType::String()));
    schema.AddColumn(Column("value", DataType::Double()));
    schema.AddColumn(Column("help", DataType::String()));
    auto table =
        std::make_shared<Table>("msql_system.metrics", std::move(schema));
    std::vector<Row> rows;
    for (const obs::MetricsRegistry::Sample& s : metrics_.Samples()) {
      rows.push_back({Value::String(s.name), Value::String(s.kind),
                      Value::Double(s.value), Value::String(s.help)});
    }
    (void)table->AppendRows(std::move(rows));
    return table;
  });

  // msql_system.queries: the trace ring flattened to one row per traced
  // statement, newest first, with the per-phase wall times FinishSelect
  // recorded. Queryable with plain SELECTs and with measures.
  system_tables_.Register("msql_system.queries", [this] {
    Schema schema;
    schema.AddColumn(Column("id", DataType::Int64()));
    schema.AddColumn(Column("trace_id", DataType::String()));
    schema.AddColumn(Column("user", DataType::String()));
    schema.AddColumn(Column("peer", DataType::String()));
    schema.AddColumn(Column("session_id", DataType::Int64()));
    schema.AddColumn(Column("sql", DataType::String()));
    schema.AddColumn(Column("status", DataType::String()));
    schema.AddColumn(Column("rows", DataType::Int64()));
    schema.AddColumn(Column("total_us", DataType::Int64()));
    schema.AddColumn(Column("admission_wait_us", DataType::Int64()));
    schema.AddColumn(Column("queue_wait_us", DataType::Int64()));
    schema.AddColumn(Column("parse_us", DataType::Int64()));
    schema.AddColumn(Column("bind_us", DataType::Int64()));
    schema.AddColumn(Column("measure_expand_us", DataType::Int64()));
    schema.AddColumn(Column("plan_us", DataType::Int64()));
    schema.AddColumn(Column("execute_us", DataType::Int64()));
    schema.AddColumn(Column("render_us", DataType::Int64()));
    schema.AddColumn(Column("plan_cache", DataType::String()));
    auto table =
        std::make_shared<Table>("msql_system.queries", std::move(schema));
    std::vector<Row> rows;
    for (const obs::TracePtr& t : RecentTraces()) {
      const QueryStats& qs = t->stats();
      const char* pc = "off";
      if (qs.plan_cache == QueryStats::PlanCacheOutcome::kMiss) pc = "miss";
      if (qs.plan_cache == QueryStats::PlanCacheOutcome::kHit) pc = "hit";
      rows.push_back({Value::Int(static_cast<int64_t>(t->id())),
                      Value::String(t->trace_id()), Value::String(t->user()),
                      Value::String(t->peer()),
                      Value::Int(static_cast<int64_t>(t->session_id())),
                      Value::String(t->sql()),
                      Value::String(t->ok() ? "ok"
                                            : ErrorCodeName(t->error_code())),
                      Value::Int(static_cast<int64_t>(t->rows_returned())),
                      Value::Int(t->total_us()),
                      Value::Int(qs.admission_wait_us),
                      Value::Int(qs.queue_wait_us), Value::Int(qs.parse_us),
                      Value::Int(qs.bind_us), Value::Int(qs.measure_expand_us),
                      Value::Int(qs.plan_us), Value::Int(qs.execute_us),
                      Value::Int(qs.render_us), Value::String(pc)});
    }
    (void)table->AppendRows(std::move(rows));
    return table;
  });
}

Status Engine::Execute(const std::string& sql) {
  return ExecuteWith(sql, DefaultContext(nullptr));
}

Status Engine::ExecuteWith(const std::string& sql, const QueryContext& ctx) {
  if (ctx.options.enable_tracing && ctx.trace == nullptr) {
    return ExecuteTraced(sql, ctx);
  }
  Parser parser(sql);
  MSQL_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts, parser.ParseStatements());
  for (const StmtPtr& stmt : stmts) {
    ResultSet ignored;
    MSQL_RETURN_IF_ERROR(ExecuteStmt(*stmt, &ignored, ctx));
  }
  return Status::Ok();
}

Result<ResultSet> Engine::Query(const std::string& sql) {
  return QueryWith(sql, DefaultContext(nullptr));
}

Result<ResultSet> Engine::Query(const std::string& sql,
                                CancelTokenPtr cancel) {
  return QueryWith(sql, DefaultContext(std::move(cancel)));
}

Result<ResultSet> Engine::QueryWith(const std::string& sql,
                                    const QueryContext& ctx) {
  QueryContext cctx = ctx;
  if (ctx.options.enable_plan_cache && ctx.plan_cache_text.empty()) {
    // Raw-text fast path: a repeated statement skips the parser entirely.
    // Misses remember the trimmed text so the fresh bind is indexed under
    // it (RunSelectImpl), warming the path for the next identical call.
    cctx.plan_cache_text = TrimStatementText(sql);
    if (PreparedPlanPtr cached = plan_cache_.Lookup(
            PlanCacheKey(ctx.user, cctx.plan_cache_text, {}),
            catalog_.generation())) {
      return QueryPlanned(cached, {}, ctx);
    }
  }
  if (ctx.options.enable_tracing && ctx.trace == nullptr) {
    return QueryTraced(sql, cctx);
  }
  MSQL_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::Parse(sql));
  ResultSet out;
  MSQL_RETURN_IF_ERROR(ExecuteStmt(*stmt, &out, cctx));
  return out;
}

Result<ResultSet> Engine::QueryTraced(const std::string& sql,
                                      const QueryContext& ctx) {
  auto trace = std::make_shared<obs::QueryTrace>(
      next_query_id_.fetch_add(1, std::memory_order_relaxed), sql,
      ctx.session_id, ctx.user);
  if (!ctx.trace_id.empty()) trace->set_trace_id(ctx.trace_id);
  if (!ctx.peer.empty()) trace->set_peer(ctx.peer);
  if (ctx.admission_wait_us > 0) {
    // Bounded-wait admission happened before the enqueue; render it as the
    // earliest negative-offset child of the root.
    trace->AddCompletedSpan("admission-wait",
                            -(ctx.admission_wait_us + ctx.queue_wait_us),
                            ctx.admission_wait_us);
  }
  if (ctx.queue_wait_us > 0) {
    // The wait happened before the trace clock started; render it as a
    // negative-offset child of the root.
    trace->set_queue_wait_us(ctx.queue_wait_us);
    trace->AddCompletedSpan("queue-wait", -ctx.queue_wait_us,
                            ctx.queue_wait_us);
  }
  QueryContext tctx = ctx;
  tctx.trace = trace.get();

  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    StmtPtr stmt;
    {
      obs::ScopedSpan span(trace.get(), "parse");
      Result<StmtPtr> parsed = Parser::Parse(sql);
      if (!parsed.ok()) {
        span.set_status(parsed.status());
        return parsed.status();
      }
      stmt = parsed.take();
    }
    ResultSet out;
    MSQL_RETURN_IF_ERROR(ExecuteStmt(*stmt, &out, tctx));
    return out;
  }();

  FinishTrace(std::move(trace),
              result.ok() ? Status::Ok() : result.status(),
              result.ok() ? result.value().num_rows() : 0);
  return result;
}

Status Engine::ExecuteTraced(const std::string& sql, const QueryContext& ctx) {
  auto trace = std::make_shared<obs::QueryTrace>(
      next_query_id_.fetch_add(1, std::memory_order_relaxed), sql,
      ctx.session_id, ctx.user);
  if (!ctx.trace_id.empty()) trace->set_trace_id(ctx.trace_id);
  if (!ctx.peer.empty()) trace->set_peer(ctx.peer);
  if (ctx.admission_wait_us > 0) {
    trace->AddCompletedSpan("admission-wait",
                            -(ctx.admission_wait_us + ctx.queue_wait_us),
                            ctx.admission_wait_us);
  }
  if (ctx.queue_wait_us > 0) {
    trace->set_queue_wait_us(ctx.queue_wait_us);
    trace->AddCompletedSpan("queue-wait", -ctx.queue_wait_us,
                            ctx.queue_wait_us);
  }
  QueryContext tctx = ctx;
  tctx.trace = trace.get();

  uint64_t rows = 0;
  Status st = [&]() -> Status {
    std::vector<StmtPtr> stmts;
    {
      obs::ScopedSpan span(trace.get(), "parse");
      Parser parser(sql);
      Result<std::vector<StmtPtr>> parsed = parser.ParseStatements();
      if (!parsed.ok()) {
        span.set_status(parsed.status());
        return parsed.status();
      }
      stmts = parsed.take();
    }
    for (const StmtPtr& stmt : stmts) {
      ResultSet ignored;
      MSQL_RETURN_IF_ERROR(ExecuteStmt(*stmt, &ignored, tctx));
      rows += ignored.num_rows();
    }
    return Status::Ok();
  }();

  FinishTrace(std::move(trace), st, rows);
  return st;
}

void Engine::FinishTrace(std::shared_ptr<obs::QueryTrace> trace,
                         const Status& st, uint64_t rows_returned) {
  trace->Finish(st, rows_returned);
  if (slow_log_threshold_ms_ >= 0 &&
      trace->total_us() >= slow_log_threshold_ms_ * 1000) {
    ins_.slow_queries->Increment();
  }
  trace_collector_.Publish(std::move(trace), ins_.obs_sink_errors);
}

SessionPtr Engine::CreateSession() { return CreateSessionForUser(user_); }

SessionPtr Engine::CreateSessionForUser(std::string user) {
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  ins_.sessions_created->Increment();
  ins_.sessions_active->Add(1.0);
  {
    std::lock_guard<std::mutex> lock(session_users_mu_);
    ++session_users_[user];
  }
  return SessionPtr(new Session(this, id, options_, std::move(user)));
}

int Engine::ActiveSessionsForUser(const std::string& user) const {
  std::lock_guard<std::mutex> lock(session_users_mu_);
  auto it = session_users_.find(user);
  return it == session_users_.end() ? 0 : it->second;
}

void Engine::NoteSessionDestroyed(const std::string& user) {
  ins_.sessions_active->Add(-1.0);
  std::lock_guard<std::mutex> lock(session_users_mu_);
  auto it = session_users_.find(user);
  if (it != session_users_.end() && --it->second <= 0) {
    session_users_.erase(it);
  }
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.queries = ins_.queries->value();
  for (size_t i = 0; i < kNumQueryCounters; ++i) {
    s.*kQueryCounters[i].member = ins_.query_counters[i]->value();
  }
  const SharedMeasureCache::Stats cache = shared_cache_.stats();
  s.shared_cache_insertions = cache.insertions;
  s.shared_cache_evictions = cache.evictions;
  s.shared_cache_entries = cache.entries;
  s.shared_cache_bytes = cache.bytes;
  return s;
}

std::string Engine::MetricsText() {
  SyncCacheMetrics();
  return metrics_.Text();
}

void Engine::SyncCacheMetrics() {
  // Fold the shared cache's internally-kept counters into the registry as
  // deltas since the last exposition, and refresh the gauges.
  const SharedMeasureCache::Stats cache = shared_cache_.stats();
  {
    std::lock_guard<std::mutex> lock(metrics_sync_mu_);
    ins_.shared_cache_insertions->Increment(cache.insertions -
                                            synced_cache_.insertions);
    ins_.shared_cache_evictions->Increment(cache.evictions -
                                           synced_cache_.evictions);
    ins_.shared_cache_invalidations->Increment(cache.invalidations -
                                               synced_cache_.invalidations);
    synced_cache_ = cache;
  }
  ins_.shared_cache_entries->Set(static_cast<double>(cache.entries));
  ins_.shared_cache_bytes->Set(static_cast<double>(cache.bytes));
  const uint64_t lookups = cache.hits + cache.misses;
  ins_.shared_cache_hit_ratio->Set(
      lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups);

  // Same folding pattern for the prepared-plan cache.
  const PlanCache::Stats pc = plan_cache_.stats();
  {
    std::lock_guard<std::mutex> lock(metrics_sync_mu_);
    ins_.plan_cache_hits->Increment(pc.hits - synced_plan_cache_.hits);
    ins_.plan_cache_misses->Increment(pc.misses - synced_plan_cache_.misses);
    ins_.plan_cache_evictions->Increment(pc.evictions -
                                         synced_plan_cache_.evictions);
    ins_.plan_cache_invalidations->Increment(
        pc.invalidations - synced_plan_cache_.invalidations);
    synced_plan_cache_ = pc;
  }
  ins_.plan_cache_entries->Set(static_cast<double>(pc.entries));
  ins_.plan_cache_bytes->Set(static_cast<double>(pc.bytes));
}

std::vector<obs::TracePtr> Engine::RecentTraces() const {
  return ring_sink_->Recent();
}

void Engine::AddTraceSink(std::shared_ptr<obs::TraceSink> sink) {
  trace_collector_.AddSink(std::move(sink));
}

void Engine::AccumulateStats(const ExecState& state) {
  ins_.queries->Increment();
  for (size_t i = 0; i < kNumQueryCounters; ++i) {
    ins_.query_counters[i]->Increment(state.*kQueryCounters[i].member);
  }
}

ThreadPool* Engine::MeasurePool() {
  std::lock_guard<std::mutex> lock(measure_pool_mu_);
  if (measure_pool_ == nullptr) {
    // Pool threads serve workers 1..N-1; the querying thread is worker 0.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 2;
    const int threads = static_cast<int>(std::min(hw, 8u)) - 1;
    measure_pool_ = std::make_unique<ThreadPool>(std::max(1, threads));
  }
  return measure_pool_.get();
}

void Engine::NoteCatalogMutation() {
  catalog_.BumpGeneration();
  shared_cache_.InvalidateOlderThan(catalog_.generation());
}

Result<ResultSet> Engine::RunSelect(const SelectStmt& select,
                                    const QueryContext& ctx, PlanPtr* plan_out,
                                    obs::PlanProfile* profile) {
  ExecState state;
  state.profile = profile;
  const auto start = std::chrono::steady_clock::now();
  Result<ResultSet> result = RunSelectImpl(select, ctx, &state, plan_out);
  return FinishSelect(ctx, state, ElapsedUsSince(start), std::move(result));
}

Result<ResultSet> Engine::FinishSelect(const QueryContext& ctx,
                                       const ExecState& state,
                                       int64_t total_us,
                                       Result<ResultSet> result) {
  // Per-query stats travel with the result (and the trace, when present),
  // so concurrent queries never clobber each other's statistics.
  auto stats = std::make_shared<QueryStats>();
  static_cast<QueryCounters&>(*stats) = state;
  stats->plan_cache =
      static_cast<QueryStats::PlanCacheOutcome>(state.plan_cache_outcome);
  stats->rows_charged = state.guard.rows_charged();
  stats->bytes_charged = state.guard.bytes_charged();
  stats->depth = state.depth;
  stats->total_us = total_us;
  if (ctx.trace != nullptr) {
    // Flatten the per-phase wall times out of the span tree (all phases
    // have closed by now and sit as direct children of the root). These
    // feed the wire response footer and msql_system.queries; untraced
    // statements leave them zero.
    for (const auto& span : ctx.trace->root().children) {
      if (span->name == "admission-wait") {
        stats->admission_wait_us += span->duration_us;
      } else if (span->name == "queue-wait") {
        stats->queue_wait_us += span->duration_us;
      } else if (span->name == "parse") {
        stats->parse_us += span->duration_us;
      } else if (span->name == "bind") {
        stats->bind_us += span->duration_us;
      } else if (span->name == "measure-expand") {
        stats->measure_expand_us += span->duration_us;
      } else if (span->name == "plan") {
        stats->plan_us += span->duration_us;
      } else if (span->name == "execute") {
        stats->execute_us += span->duration_us;
      } else if (span->name == "render") {
        stats->render_us += span->duration_us;
      }
    }
    ctx.trace->set_stats(*stats);
  }
  if (result.ok()) result.value().set_stats(std::move(stats));

  ins_.query_duration_ms->Observe(static_cast<double>(total_us) / 1000.0);
  if (!result.ok()) ins_.query_errors->Increment();
  AccumulateStats(state);
  return result;
}

Result<ResultSet> Engine::RunSelectImpl(const SelectStmt& select,
                                        const QueryContext& ctx,
                                        ExecState* state, PlanPtr* plan_out) {
  MSQL_FAULT_POINT("engine.select");

  // Plan-cache probe under the canonical (unparsed) statement text: two
  // textually different spellings of the same statement share one entry.
  // The generation is snapshotted *before* binding so an entry bound while
  // a catalog mutation is in flight records the older generation and
  // self-invalidates on its next probe.
  const uint64_t bind_generation = catalog_.generation();
  std::string canonical_key;
  if (ctx.options.enable_plan_cache) {
    canonical_key = PlanCacheKey(ctx.user, Unparse(select), {});
    if (PreparedPlanPtr cached =
            plan_cache_.Lookup(canonical_key, bind_generation)) {
      state->plan_cache_outcome = 2;
      if (plan_out != nullptr) *plan_out = cached->plan;
      if (!ctx.plan_cache_text.empty()) {
        // A differently-spelled statement canonicalized onto this entry:
        // alias its raw text too so the pre-parse fast path hits next time.
        plan_cache_.Insert(PlanCacheKey(ctx.user, ctx.plan_cache_text, {}),
                           cached);
      }
      return ExecutePlanImpl(cached->plan, ctx, state, nullptr);
    }
    state->plan_cache_outcome = 1;
  }

  Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                SystemTablesFor(ctx.options));
  PlanPtr plan;
  int64_t expand_us = -1;  // sentinel: no measure expansion happened
  {
    obs::ScopedSpan span(ctx.trace, "bind");
    if (ctx.trace != nullptr) {
      binder.set_measure_expand_accumulator(&expand_us);
    }
    Result<PlanPtr> bound = binder.Bind(select);
    if (!bound.ok()) {
      span.set_status(bound.status());
      return bound.status();
    }
    plan = bound.take();
  }
  if (ctx.trace != nullptr && expand_us >= 0) {
    // Measure expansion ran inside bind, which just closed; back-date the
    // span so it nests where it happened.
    ctx.trace->AddCompletedSpan("measure-expand",
                                ctx.trace->ElapsedUs() - expand_us, expand_us);
  }
  if (plan_out != nullptr) *plan_out = plan;

  // System-table scans embed a point-in-time snapshot that the catalog
  // generation does not version: the plan must never be published (a later
  // hit would replay stale telemetry) and the statement must not read or
  // fill the cross-query shared cache.
  if (binder.used_system_tables()) state->forbid_shared_cache = true;

  // On a miss, publish the freshly bound plan. The fill runs as the
  // `after_arm` hook so its memory footprint is charged against the armed
  // query guard (a cache fill must not dodge the query's byte budget).
  std::function<Status()> after_arm;
  if (ctx.options.enable_plan_cache && !binder.used_system_tables()) {
    auto entry = std::make_shared<PreparedPlan>();
    entry->sql = ctx.plan_cache_text;
    entry->canonical = Unparse(select);
    entry->user = ctx.user;
    entry->plan = plan;
    entry->param_count = 0;
    entry->generation = bind_generation;
    entry->fingerprint = FingerprintPlan(*plan);
    entry->approx_bytes = PlanCache::ApproxPlanBytes(*entry);
    after_arm = [this, state, entry, canonical_key,
                 raw_text = ctx.plan_cache_text]() -> Status {
      MSQL_RETURN_IF_ERROR(state->guard.ChargeBytes(entry->approx_bytes));
      plan_cache_.Insert(canonical_key, entry);
      if (!raw_text.empty()) {
        // Raw-text alias: the pre-parse fast path in QueryWith probes by
        // the trimmed statement text before a parser ever runs.
        plan_cache_.Insert(PlanCacheKey(entry->user, raw_text, {}), entry);
      }
      return Status::Ok();
    };
  }

  return ExecutePlanImpl(plan, ctx, state, after_arm);
}

Result<ResultSet> Engine::ExecutePlanImpl(
    const PlanPtr& plan, const QueryContext& ctx, ExecState* state,
    const std::function<Status()>& after_arm) {
  {
    obs::ScopedSpan span(ctx.trace, "plan");
    state->options = ctx.options;
    if ((ctx.options.measure_strategy == MeasureStrategy::kMemoized ||
         ctx.options.measure_strategy == MeasureStrategy::kGrouped) &&
        !state->forbid_shared_cache) {
      state->shared_cache = &shared_cache_;
      state->catalog_generation = catalog_.generation();
    }
    if (ctx.options.measure_strategy == MeasureStrategy::kGrouped &&
        ctx.options.measure_parallelism != 1) {
      state->measure_pool_provider = [this] { return MeasurePool(); };
    }
    state->guard.Arm(ctx.options.timeout_ms, ctx.options.max_memory_bytes,
                     ctx.options.max_result_rows, ctx.cancel,
                     cancel_generation_, ctx.cancel_generation);
    if (ctx.has_deadline) state->guard.TightenDeadline(ctx.deadline);
    if (after_arm) {
      Status st = after_arm();
      if (!st.ok()) {
        span.set_status(st);
        return st;
      }
    }
  }

  RelationPtr rel;
  {
    obs::ScopedSpan span(ctx.trace, "execute", &state->guard);
    Executor executor(state);
    Result<RelationPtr> executed = executor.Execute(*plan, {});
    if (!executed.ok()) {
      span.set_status(executed.status());
      return executed.status();
    }
    rel = executed.take();
  }

  obs::ScopedSpan render_span(ctx.trace, "render", &state->guard);
  Result<ResultSet> rendered = [&]() -> Result<ResultSet> {
    const size_t visible = rel->schema.num_visible();
    std::vector<std::string> names;
    std::vector<DataType> types;
    for (size_t i = 0; i < visible; ++i) {
      names.push_back(rel->schema.column(i).name);
      types.push_back(rel->schema.column(i).type);
    }
    MSQL_RETURN_IF_ERROR(state->guard.ChargeRows(rel->rows.size(), visible));
    std::vector<Row> rows;
    rows.reserve(rel->rows.size());
    for (const Row& r : rel->rows) {
      rows.emplace_back(r.begin(), r.begin() + visible);
    }

    // Measure columns surviving to the top level are rendered at the
    // result's own grain: each cell is the measure evaluated with every
    // dimension pinned to its row (the default per-row evaluation context).
    // Inside nested queries the placeholder NULLs are never read,
    // preserving closure. One batch per measure column: every row's
    // context shares a shape, which the grouped strategy turns into one
    // index build plus a probe (possibly morsel-parallel) per row.
    for (const RtMeasure& m : rel->measures) {
      if (m.column < 0 || static_cast<size_t>(m.column) >= visible) continue;
      std::vector<EvalContext> contexts;
      contexts.reserve(rel->rows.size());
      for (size_t r = 0; r < rel->rows.size(); ++r) {
        MSQL_RETURN_IF_ERROR(state->guard.Check());
        Frame frame{&rel->rows[r], static_cast<int64_t>(r), rel.get()};
        MSQL_ASSIGN_OR_RETURN(EvalContext ctx2,
                              BuildRowContext(m, frame, state));
        contexts.push_back(std::move(ctx2));
      }
      MSQL_ASSIGN_OR_RETURN(std::vector<Value> vals,
                            EvaluateMeasureBatch(m, contexts, state));
      for (size_t r = 0; r < rel->rows.size(); ++r) {
        rows[r][m.column] = std::move(vals[r]);
      }
    }
    return ResultSet(std::move(names), std::move(types), std::move(rows));
  }();
  if (!rendered.ok()) render_span.set_status(rendered.status());
  return rendered;
}

Result<PreparedPlanPtr> Engine::PrepareSelect(
    const std::string& sql, std::vector<TypeKind> param_types,
    const QueryContext& ctx) {
  const std::string trimmed = TrimStatementText(sql);
  const std::string key = PlanCacheKey(ctx.user, trimmed, param_types);
  // Snapshot before binding: an entry bound during a concurrent catalog
  // mutation records the older generation and self-invalidates on probe.
  const uint64_t bind_generation = catalog_.generation();
  if (ctx.options.enable_plan_cache) {
    if (PreparedPlanPtr cached = plan_cache_.Lookup(key, bind_generation)) {
      return cached;
    }
  }

  Parser parser(sql);
  MSQL_ASSIGN_OR_RETURN(StmtPtr stmt, parser.ParseSingleStatement());
  if (stmt->kind != StmtKind::kSelect || stmt->select == nullptr) {
    return Status(ErrorCode::kInvalidArgument,
                  "Prepare expects a single SELECT statement");
  }

  Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                SystemTablesFor(ctx.options));
  binder.set_param_types(param_types);
  MSQL_ASSIGN_OR_RETURN(PlanPtr plan, binder.Bind(*stmt->select));
  if (binder.used_system_tables()) {
    // A prepared plan over a system table would freeze one telemetry
    // snapshot and serve it forever (their contents change without a
    // catalog generation bump). Re-issue the SELECT as plain text instead.
    return Status(ErrorCode::kInvalidArgument,
                  "cannot prepare a statement over msql_system tables");
  }
  if (binder.param_count() != static_cast<int>(param_types.size())) {
    return Status(ErrorCode::kBind,
                  StrCat("statement references ", binder.param_count(),
                         " positional parameter(s) but ", param_types.size(),
                         " type(s) were declared"));
  }

  auto entry = std::make_shared<PreparedPlan>();
  entry->sql = trimmed;
  entry->canonical = Unparse(*stmt->select);
  entry->user = ctx.user;
  entry->plan = plan;
  entry->param_types = std::move(param_types);
  entry->param_count = entry->param_types.empty()
                           ? binder.param_count()
                           : static_cast<int>(entry->param_types.size());
  entry->generation = bind_generation;
  entry->fingerprint = FingerprintPlan(*plan);
  entry->approx_bytes = PlanCache::ApproxPlanBytes(*entry);

  if (ctx.options.enable_plan_cache) {
    MSQL_FAULT_POINT("net.plan_cache_fill");
    // Charge the fill against the preparing statement's memory budget so a
    // flood of prepares cannot dodge resource governance.
    QueryGuard guard;
    guard.Arm(ctx.options.timeout_ms, ctx.options.max_memory_bytes,
              ctx.options.max_result_rows, ctx.cancel, cancel_generation_);
    MSQL_RETURN_IF_ERROR(guard.ChargeBytes(entry->approx_bytes));
    plan_cache_.Insert(key, entry);
    // Canonical alias: a differently-spelled but structurally identical
    // Prepare from another connection reuses this bound plan.
    plan_cache_.Insert(
        PlanCacheKey(entry->user, entry->canonical, entry->param_types),
        entry);
  }
  return PreparedPlanPtr(std::move(entry));
}

Result<ResultSet> Engine::QueryPlanned(const PreparedPlanPtr& prepared,
                                       const Row& params,
                                       const QueryContext& ctx) {
  if (prepared == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "null prepared plan");
  }
  if (prepared->generation != catalog_.generation()) {
    return Status(ErrorCode::kCatalog,
                  "prepared plan is stale: the catalog changed since the "
                  "statement was bound; re-prepare");
  }
  if (params.size() != prepared->param_types.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  StrCat("expected ", prepared->param_types.size(),
                         " parameter value(s), got ", params.size()));
  }
  Row coerced;
  coerced.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Result<Value> cast = params[i].CastTo(prepared->param_types[i]);
    if (!cast.ok()) {
      return Status(ErrorCode::kInvalidArgument,
                    StrCat("parameter $", i + 1, " type mismatch: expected ",
                           TypeKindName(prepared->param_types[i]), ", got ",
                           TypeKindName(params[i].kind())));
    }
    coerced.push_back(cast.take());
  }

  if (ctx.options.enable_tracing && ctx.trace == nullptr) {
    auto trace = std::make_shared<obs::QueryTrace>(
        next_query_id_.fetch_add(1, std::memory_order_relaxed), prepared->sql,
        ctx.session_id, ctx.user);
    if (!ctx.trace_id.empty()) trace->set_trace_id(ctx.trace_id);
    if (!ctx.peer.empty()) trace->set_peer(ctx.peer);
    if (ctx.admission_wait_us > 0) {
      trace->AddCompletedSpan("admission-wait",
                              -(ctx.admission_wait_us + ctx.queue_wait_us),
                              ctx.admission_wait_us);
    }
    if (ctx.queue_wait_us > 0) {
      trace->set_queue_wait_us(ctx.queue_wait_us);
      trace->AddCompletedSpan("queue-wait", -ctx.queue_wait_us,
                              ctx.queue_wait_us);
    }
    QueryContext tctx = ctx;
    tctx.trace = trace.get();
    Result<ResultSet> result = RunPlanned(prepared, coerced, tctx);
    FinishTrace(std::move(trace),
                result.ok() ? Status::Ok() : result.status(),
                result.ok() ? result.value().num_rows() : 0);
    return result;
  }
  return RunPlanned(prepared, coerced, ctx);
}

Result<ResultSet> Engine::RunPlanned(const PreparedPlanPtr& prepared,
                                     const Row& params,
                                     const QueryContext& ctx) {
  ExecState state;
  state.plan_cache_outcome = 2;  // a bound plan was reused, however obtained
  state.params = &params;
  if (!params.empty()) state.param_sig = RenderParamSig(params);
  const auto start = std::chrono::steady_clock::now();
  Result<ResultSet> result =
      ExecutePlanImpl(prepared->plan, ctx, &state, nullptr);
  return FinishSelect(ctx, state, ElapsedUsSince(start), std::move(result));
}

Status Engine::ExecuteStmt(const Stmt& stmt, ResultSet* out,
                           const QueryContext& ctx) {
  MSQL_FAULT_POINT("engine.stmt");
  switch (stmt.kind) {
    case StmtKind::kSelect: {
      MSQL_ASSIGN_OR_RETURN(*out, RunSelect(*stmt.select, ctx));
      return Status::Ok();
    }
    case StmtKind::kCreateTable: {
      Schema schema;
      for (const ColumnDef& col : stmt.columns) {
        TypeKind kind = TypeKindFromName(col.type_name);
        if (kind == TypeKind::kNull) {
          return Status(ErrorCode::kBind,
                        "unknown column type '" + col.type_name + "'");
        }
        schema.AddColumn(Column(col.name, DataType(kind)));
      }
      MSQL_RETURN_IF_ERROR(catalog_.CreateTable(
          stmt.name, std::move(schema), stmt.if_not_exists, ctx.user));
      NoteCatalogMutation();
      return Status::Ok();
    }
    case StmtKind::kCreateView: {
      // Validate eagerly so errors surface at CREATE time.
      Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                    SystemTablesFor(ctx.options));
      MSQL_ASSIGN_OR_RETURN(PlanPtr plan, binder.Bind(*stmt.view_select));
      (void)plan;
      MSQL_RETURN_IF_ERROR(catalog_.CreateView(
          stmt.name, stmt.view_select->Clone(), stmt.or_replace, ctx.user));
      NoteCatalogMutation();
      return Status::Ok();
    }
    case StmtKind::kDrop: {
      MSQL_RETURN_IF_ERROR(
          catalog_.Drop(stmt.name, stmt.drop_is_view, stmt.if_exists));
      NoteCatalogMutation();
      return Status::Ok();
    }
    case StmtKind::kInsert:
      return ExecuteInsert(stmt, ctx);
    case StmtKind::kExplain: {
      // The raw-text alias must not map "EXPLAIN ... <select>" to the inner
      // select's plan — a later fast-path hit on that text would return the
      // select's rows instead of the explain rendering.
      QueryContext ectx = ctx;
      ectx.plan_cache_text.clear();
      obs::ExplainOptions eopts;
      eopts.strategy = ctx.options.measure_strategy;
      eopts.inline_visible_contexts = ctx.options.inline_visible_contexts;
      std::string text;
      if (stmt.explain_analyze) {
        // EXPLAIN ANALYZE really runs the statement: the profile maps plan
        // nodes to observed rows/time/cache activity, and the summary is
        // the query's own stats. A statement that stops early — deadline,
        // cancellation, shed — still explains: the bound plan is rendered
        // with an Outcome: line instead of propagating the error, so the
        // operator can see where the budget went. Parse/bind failures
        // (no plan) still fail the EXPLAIN itself.
        obs::PlanProfile profile;
        PlanPtr plan;
        Result<ResultSet> rs = RunSelect(*stmt.select, ectx, &plan, &profile);
        if (!rs.ok() && plan == nullptr) return rs.status();
        eopts.profile = &profile;
        text = obs::RenderPlanTree(*plan, eopts);
        if (rs.ok() && rs.value().stats() != nullptr) {
          text += obs::RenderAnalyzeSummary(*rs.value().stats(), eopts);
        }
        if (!rs.ok()) text += obs::RenderAnalyzeOutcome(rs.status());
      } else {
        Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth);
        MSQL_ASSIGN_OR_RETURN(PlanPtr plan, binder.Bind(*stmt.select));
        text = obs::RenderPlanTree(*plan, eopts);
      }
      std::vector<Row> rows;
      for (const std::string& line : Split(text, '\n')) {
        if (!line.empty()) rows.push_back({Value::String(line)});
      }
      *out = ResultSet({"plan"}, {DataType::String()}, std::move(rows));
      return Status::Ok();
    }
    case StmtKind::kCopy: {
      if (stmt.copy_from) {
        return LoadCsv(stmt.name, stmt.copy_path);
      }
      // Export: base tables dump storage directly; views are materialized.
      const auto entry = catalog_.Find(stmt.name);
      if (entry == nullptr) {
        return Status(ErrorCode::kCatalog,
                      "object '" + stmt.name + "' does not exist");
      }
      MSQL_RETURN_IF_ERROR(catalog_.CheckAccess(*entry, ctx.user));
      if (entry->kind == CatalogEntry::Kind::kTable) {
        return WriteCsv(stmt.copy_path, *entry->table);
      }
      MSQL_ASSIGN_OR_RETURN(ResultSet rs,
                            QueryWith("SELECT * FROM " + stmt.name, ctx));
      std::ofstream file(stmt.copy_path, std::ios::binary);
      if (!file) {
        return Status(ErrorCode::kIo,
                      "cannot write file '" + stmt.copy_path + "'");
      }
      file << rs.ToCsv();
      return Status::Ok();
    }
    case StmtKind::kDescribe: {
      const auto entry = catalog_.Find(stmt.name);
      if (entry == nullptr) {
        return Status(ErrorCode::kCatalog,
                      "object '" + stmt.name + "' does not exist");
      }
      MSQL_RETURN_IF_ERROR(catalog_.CheckAccess(*entry, ctx.user));
      std::vector<Row> rows;
      if (entry->kind == CatalogEntry::Kind::kTable) {
        for (const Column& c : entry->table->schema().columns()) {
          rows.push_back(
              {Value::String(c.name), Value::String(c.type.ToString())});
        }
      } else {
        Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                      SystemTablesFor(ctx.options));
        MSQL_ASSIGN_OR_RETURN(PlanPtr plan, binder.Bind(*entry->view_ast));
        for (size_t i = 0; i < plan->schema.num_visible(); ++i) {
          const Column& c = plan->schema.column(i);
          rows.push_back(
              {Value::String(c.name), Value::String(c.type.ToString())});
        }
      }
      *out = ResultSet({"column", "type"},
                       {DataType::String(), DataType::String()},
                       std::move(rows));
      return Status::Ok();
    }
  }
  return Status(ErrorCode::kInvalidArgument, "unsupported statement");
}

Status Engine::ExecuteInsert(const Stmt& stmt, const QueryContext& ctx) {
  const auto entry = catalog_.Find(stmt.insert_table);
  if (entry == nullptr || entry->kind != CatalogEntry::Kind::kTable) {
    return Status(ErrorCode::kCatalog,
                  "table '" + stmt.insert_table + "' does not exist");
  }
  MSQL_RETURN_IF_ERROR(catalog_.CheckAccess(*entry, ctx.user));
  Table* table = entry->table.get();
  const Schema& schema = table->schema();

  // Map the insert column list onto the schema.
  std::vector<int> positions;
  if (stmt.insert_columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : stmt.insert_columns) {
      auto matches = schema.Find("", name);
      if (matches.size() != 1) {
        return Status(ErrorCode::kBind, "unknown column '" + name + "'");
      }
      positions.push_back(static_cast<int>(matches[0]));
    }
  }

  // Collect the full batch first so the table mutation is one locked
  // append and one generation bump.
  std::vector<Row> batch;
  auto stage = [&](const Row& values) -> Status {
    if (values.size() != positions.size()) {
      return Status(ErrorCode::kExecution,
                    StrCat("INSERT expects ", positions.size(),
                           " values, got ", values.size()));
    }
    Row row(schema.size(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = values[i];
    }
    batch.push_back(std::move(row));
    return Status::Ok();
  };

  if (stmt.insert_select != nullptr) {
    MSQL_ASSIGN_OR_RETURN(ResultSet rs, RunSelect(*stmt.insert_select, ctx));
    for (const Row& r : rs.rows()) MSQL_RETURN_IF_ERROR(stage(r));
  } else {
    // INSERT ... VALUES rows are constant expressions; evaluate each row by
    // reusing the FROM-less SELECT path.
    for (const auto& row_exprs : stmt.insert_rows) {
      SelectStmt values_select;
      for (const ExprPtr& e : row_exprs) {
        SelectItem item;
        item.expr = e->Clone();
        values_select.select_list.push_back(std::move(item));
      }
      MSQL_ASSIGN_OR_RETURN(ResultSet rs, RunSelect(values_select, ctx));
      if (rs.num_rows() != 1) {
        return Status(ErrorCode::kExecution, "VALUES row evaluation failed");
      }
      MSQL_RETURN_IF_ERROR(stage(rs.rows()[0]));
    }
  }
  MSQL_RETURN_IF_ERROR(table->AppendRows(std::move(batch)));
  NoteCatalogMutation();
  return Status::Ok();
}

Status Engine::InsertRows(const std::string& table, std::vector<Row> rows) {
  const auto entry = catalog_.Find(table);
  if (entry == nullptr || entry->kind != CatalogEntry::Kind::kTable) {
    return Status(ErrorCode::kCatalog, "table '" + table + "' does not exist");
  }
  MSQL_RETURN_IF_ERROR(catalog_.CheckAccess(*entry, user_));
  MSQL_RETURN_IF_ERROR(entry->table->AppendRows(std::move(rows)));
  NoteCatalogMutation();
  return Status::Ok();
}

Result<std::string> Engine::Explain(const std::string& sql) {
  MSQL_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::Parse(sql));
  const SelectStmt* select = nullptr;
  if (stmt->kind == StmtKind::kSelect || stmt->kind == StmtKind::kExplain) {
    select = stmt->select.get();
  } else {
    return Status(ErrorCode::kInvalidArgument, "EXPLAIN requires a SELECT");
  }
  Binder binder(&catalog_, user_, options_.max_recursion_depth,
                SystemTablesFor(options_));
  MSQL_ASSIGN_OR_RETURN(PlanPtr plan, binder.Bind(*select));
  obs::ExplainOptions eopts;
  eopts.strategy = options_.measure_strategy;
  eopts.inline_visible_contexts = options_.inline_visible_contexts;
  return obs::RenderPlanTree(*plan, eopts);
}

Result<std::string> Engine::ExpandSql(const std::string& sql) {
  MSQL_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::Parse(sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status(ErrorCode::kInvalidArgument,
                  "measure expansion requires a SELECT");
  }
  return ExpandMeasures(*stmt->select, catalog_, user_);
}

Status Engine::LoadCsv(const std::string& table, const std::string& path,
                       bool header) {
  const auto entry = catalog_.Find(table);
  if (entry == nullptr || entry->kind != CatalogEntry::Kind::kTable) {
    return Status(ErrorCode::kCatalog, "table '" + table + "' does not exist");
  }
  MSQL_RETURN_IF_ERROR(catalog_.CheckAccess(*entry, user_));
  MSQL_RETURN_IF_ERROR(AppendCsv(path, header, entry->table.get()));
  NoteCatalogMutation();
  return Status::Ok();
}

Status Engine::ImportCsv(const std::string& table, const std::string& path) {
  MSQL_ASSIGN_OR_RETURN(Schema schema, InferCsvSchema(path));
  MSQL_RETURN_IF_ERROR(
      catalog_.CreateTable(table, schema, /*if_not_exists=*/false, user_));
  NoteCatalogMutation();
  return LoadCsv(table, path, /*header=*/true);
}

Status Engine::Grant(const std::string& object, const std::string& user) {
  MSQL_RETURN_IF_ERROR(catalog_.Grant(object, user));
  NoteCatalogMutation();
  return Status::Ok();
}

}  // namespace msql
