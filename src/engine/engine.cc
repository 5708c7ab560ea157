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
#include "plan/rewrite.h"
#include "runtime/fingerprint.h"
#include "runtime/session.h"

namespace msql {

namespace {

// Plans run rewritten (plan/rewrite.h) under every strategy but kNaive: the
// naive oracle legs run the literal plan, so the other legs check the
// rewrite. Plan-cache keys record the form, so a session never runs a
// cached plan of the other form.
bool RewritesPlans(const EngineOptions& options) {
  return options.measure_strategy != MeasureStrategy::kNaive;
}

// Binds a SELECT the engine is about to run or explain. CREATE VIEW
// validation, DESCRIBE and ExpandSql bind without the rewrite.
Result<PlanPtr> BindToRun(Binder* binder, const SelectStmt& select,
                          const EngineOptions& options) {
  MSQL_ASSIGN_OR_RETURN(PlanPtr plan, binder->Bind(select));
  if (RewritesPlans(options)) plan = PushDownFilters(std::move(plan));
  return plan;
}

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

// Renders an admitted statement's admission and worker-queue waits, which
// happened before the trace clock started, as negative-offset children of
// the root in the order they happened: msqld queues a statement before
// admitting it, QueryScheduler after.
void AddAdmissionSpans(obs::QueryTrace* trace, const QueryContext& ctx) {
  using TimePoint = std::chrono::steady_clock::time_point;
  const TimePoint now = std::chrono::steady_clock::now();
  auto micros = [](TimePoint from, TimePoint to) {
    return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
        .count();
  };
  struct Wait {
    const char* name;
    TimePoint from, to;
  };
  Wait waits[] = {{"admission-wait", ctx.admission_start, ctx.admitted_at},
                  {"queue-wait", ctx.queued_at, ctx.dequeued_at}};
  if (ctx.queued_at < ctx.admission_start) std::swap(waits[0], waits[1]);
  for (const Wait& wait : waits) {
    const int64_t us = micros(wait.from, wait.to);
    if (us > 0) trace->AddCompletedSpan(wait.name, -micros(wait.from, now), us);
  }
  trace->set_queue_wait_us(
      std::max<int64_t>(0, micros(ctx.queued_at, ctx.dequeued_at)));
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

// The plan-cache key of `text` (a trimmed statement text or a canonical
// unparse) for the context's user and plan form at catalog `generation`.
std::string CacheKey(const QueryContext& ctx, const std::string& text,
                     const std::vector<TypeKind>& param_types,
                     uint64_t generation) {
  return PlanCacheKey(ctx.user, text, param_types, RewritesPlans(ctx.options),
                      generation);
}

// The plan cached under `key`, or null.
PreparedPlanPtr LookupPlan(PlanCache& cache, const std::string& key) {
  return std::static_pointer_cast<const PreparedPlan>(cache.Lookup(key));
}

// The row count a finished statement reports to its trace.
uint64_t RowsReturned(const Result<ResultSet>& result) {
  return result.ok() ? result.value().num_rows() : 0;
}
uint64_t RowsReturned(const Result<uint64_t>& result) {
  return result.ok() ? result.value() : 0;
}

// Renders an executed relation as the statement's result: its visible
// columns, with each measure column surviving to the top level evaluated
// at the result's own grain — every dimension pinned to its row (the
// default per-row evaluation context). Inside nested queries the
// placeholder NULLs are never read, preserving closure. One batch per
// measure column: every row's context shares a shape, which the grouped
// strategy answers from one key->value table with a lookup per row.
Result<ResultSet> RenderResult(const Relation& rel, ExecState* state) {
  const size_t visible = rel.schema.num_visible();
  std::vector<std::string> names;
  std::vector<DataType> types;
  for (size_t i = 0; i < visible; ++i) {
    names.push_back(rel.schema.column(i).name);
    types.push_back(rel.schema.column(i).type);
  }
  MSQL_RETURN_IF_ERROR(state->guard.ChargeRows(rel.rows.size(), visible));
  std::vector<Row> rows;
  rows.reserve(rel.rows.size());
  for (const Row& r : rel.rows) {
    rows.emplace_back(r.begin(), r.begin() + visible);
  }
  for (const RtMeasure& m : rel.measures) {
    if (m.column < 0 || static_cast<size_t>(m.column) >= visible) continue;
    std::vector<EvalContext> contexts;
    contexts.reserve(rel.rows.size());
    for (size_t r = 0; r < rel.rows.size(); ++r) {
      MSQL_RETURN_IF_ERROR(state->guard.Check());
      Frame frame{&rel.rows[r], static_cast<int64_t>(r), &rel};
      MSQL_ASSIGN_OR_RETURN(EvalContext ctx, BuildRowContext(m, frame, state));
      contexts.push_back(std::move(ctx));
    }
    MSQL_ASSIGN_OR_RETURN(std::vector<Value> vals,
                          EvaluateMeasureBatch(m, contexts, state));
    for (size_t r = 0; r < rel.rows.size(); ++r) {
      rows[r][m.column] = std::move(vals[r]);
    }
  }
  return ResultSet(std::move(names), std::move(types), std::move(rows));
}

}  // namespace

template <typename Body>
auto Engine::Traced(const std::string& text, const QueryContext& ctx,
                    Body body) {
  if (!ctx.options.enable_tracing || ctx.trace != nullptr) return body(ctx);
  auto trace = std::make_shared<obs::QueryTrace>(
      next_query_id_.fetch_add(1, std::memory_order_relaxed), text,
      ctx.session_id, ctx.user);
  if (!ctx.trace_id.empty()) trace->set_trace_id(ctx.trace_id);
  if (!ctx.peer.empty()) trace->set_peer(ctx.peer);
  AddAdmissionSpans(trace.get(), ctx);
  QueryContext tctx = ctx;
  tctx.trace = trace.get();
  auto result = body(tctx);
  trace->Finish(result.status(), RowsReturned(result));
  if (slow_log_threshold_ms_ >= 0 &&
      trace->total_us() >= slow_log_threshold_ms_ * 1000) {
    ins_.slow_queries->Increment();
  }
  trace_collector_.Publish(std::move(trace), ins_.obs_sink_errors);
  return result;
}

void Engine::InitObs() {
  ins_.queries = metrics_.GetCounter(
      "msql_queries_total", "SELECT statements executed");
  ins_.query_errors = metrics_.GetCounter(
      "msql_query_errors_total", "SELECT statements that returned an error");
  for (size_t i = 0; i < kNumQueryCounters; ++i) {
    ins_.query_counters[i] =
        metrics_.GetCounter(kQueryCounters[i].metric, kQueryCounters[i].help);
  }
  ins_.shared_cache.insertions = metrics_.GetCounter(
      "msql_shared_cache_insertions_total", "Cross-query shared cache fills");
  ins_.shared_cache.evictions = metrics_.GetCounter(
      "msql_shared_cache_evictions_total",
      "Cross-query shared cache entries evicted (LRU or byte budget)");
  ins_.shared_cache.invalidations = metrics_.GetCounter(
      "msql_shared_cache_invalidations_total",
      "Cross-query shared cache entries purged by a catalog mutation");
  ins_.sessions_created = metrics_.GetCounter(
      "msql_sessions_created_total", "Sessions created over engine lifetime");
  ins_.slow_queries = metrics_.GetCounter(
      "msql_slow_queries_total",
      "Traced queries at or above the slow-query threshold");
  ins_.obs_sink_errors = metrics_.GetCounter(
      "msql_obs_sink_errors_total",
      "Trace sink emissions that failed (queries are unaffected)");
  ins_.plan_cache.hits = metrics_.GetCounter(
      "msql_plan_cache_hits_total",
      "Plan cache lookups that returned a fresh bound plan");
  ins_.plan_cache.misses = metrics_.GetCounter(
      "msql_plan_cache_misses_total",
      "Plan cache lookups that required a fresh parse + bind");
  ins_.plan_cache.evictions = metrics_.GetCounter(
      "msql_plan_cache_evictions_total",
      "Prepared plans evicted from the plan cache (LRU)");
  ins_.plan_cache.invalidations = metrics_.GetCounter(
      "msql_plan_cache_invalidations_total",
      "Cached plans purged by a catalog mutation");
  ins_.sessions_active = metrics_.GetGauge(
      "msql_sessions_active", "Sessions currently alive");
  ins_.shared_cache.entries = metrics_.GetGauge(
      "msql_shared_cache_entries", "Cross-query shared cache entries");
  ins_.shared_cache.bytes = metrics_.GetGauge(
      "msql_shared_cache_bytes", "Cross-query shared cache approximate bytes");
  ins_.shared_cache.hit_ratio = metrics_.GetGauge(
      "msql_shared_cache_hit_ratio",
      "Cross-query shared cache hits / lookups over engine lifetime");
  ins_.plan_cache.entries = metrics_.GetGauge(
      "msql_plan_cache_entries",
      "Prepared plans currently cached (alias keys counted)");
  ins_.plan_cache.bytes = metrics_.GetGauge(
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
  return Traced(sql, ctx, [&](const QueryContext& tctx) -> Result<uint64_t> {
    std::vector<StmtPtr> stmts;
    {
      obs::ScopedSpan span(tctx.trace, "parse");
      Parser parser(sql);
      Result<std::vector<StmtPtr>> parsed = parser.ParseStatements();
      if (!parsed.ok()) {
        span.set_status(parsed.status());
        return parsed.status();
      }
      stmts = parsed.take();
    }
    uint64_t rows = 0;
    for (const StmtPtr& stmt : stmts) {
      ResultSet ignored;
      MSQL_RETURN_IF_ERROR(ExecuteStmt(*stmt, &ignored, tctx));
      rows += ignored.num_rows();
    }
    return rows;
  }).status();
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
  // Raw-text fast path: a repeated statement skips the parser entirely. On
  // a miss a top-level SELECT publishes its fresh plan under the trimmed
  // text too (BuildPlan), warming the path for the next identical call. A
  // hit runs the plan it found, fresh when probed: a write landing after
  // the probe orders this read before it, as a read that probed a moment
  // earlier would be. (QueryPlanned's staleness refusal is for handles a
  // client holds across statements.)
  std::string text;
  if (ctx.options.enable_plan_cache) {
    text = TrimStatementText(sql);
    if (PreparedPlanPtr cached = LookupPlan(
            plan_cache_, CacheKey(ctx, text, {}, catalog_.generation()))) {
      return Traced(cached->sql, ctx, [&](const QueryContext& tctx) {
        return RunSelect(tctx, cached, {});
      });
    }
  }
  return Traced(sql, ctx, [&](const QueryContext& tctx) -> Result<ResultSet> {
    StmtPtr stmt;
    {
      obs::ScopedSpan span(tctx.trace, "parse");
      Result<StmtPtr> parsed = Parser::Parse(sql);
      if (!parsed.ok()) {
        span.set_status(parsed.status());
        return parsed.status();
      }
      stmt = parsed.take();
    }
    ResultSet out;
    MSQL_RETURN_IF_ERROR(ExecuteStmt(*stmt, &out, tctx, text));
    return out;
  });
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
  const LruCache::Stats cache = shared_cache_.stats();
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
  // Fold each cache's internally kept counters into the registry as deltas
  // since the last exposition, and refresh the gauges.
  std::lock_guard<std::mutex> lock(metrics_sync_mu_);
  FoldCacheStats(shared_cache_.stats(), &ins_.shared_cache);
  FoldCacheStats(plan_cache_.stats(), &ins_.plan_cache);
}

void Engine::FoldCacheStats(const LruCache::Stats& now,
                            CacheInstruments* ins) {
  const LruCache::Stats& was = ins->synced;
  auto fold = [](obs::Counter* c, uint64_t now_value, uint64_t was_value) {
    if (c != nullptr) c->Increment(now_value - was_value);
  };
  fold(ins->hits, now.hits, was.hits);
  fold(ins->misses, now.misses, was.misses);
  fold(ins->insertions, now.insertions, was.insertions);
  fold(ins->evictions, now.evictions, was.evictions);
  fold(ins->invalidations, now.invalidations, was.invalidations);
  ins->synced = now;
  if (ins->entries != nullptr) ins->entries->Set(now.entries);
  if (ins->bytes != nullptr) ins->bytes->Set(now.bytes);
  if (ins->hit_ratio != nullptr) {
    const uint64_t lookups = now.hits + now.misses;
    ins->hit_ratio->Set(
        lookups == 0 ? 0.0 : static_cast<double>(now.hits) / lookups);
  }
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
  const uint64_t generation = catalog_.generation();
  shared_cache_.InvalidateOlderThan(generation);
  plan_cache_.InvalidateOlderThan(generation);
}

void Engine::ArmGuard(const QueryContext& ctx, QueryGuard* guard) const {
  guard->Arm(ctx.options.timeout_ms, ctx.options.max_memory_bytes,
             ctx.options.max_result_rows, ctx.cancel, cancel_generation_,
             ctx.cancel_generation);
  if (ctx.has_deadline) guard->TightenDeadline(ctx.deadline);
}

Result<ResultSet> Engine::RunSelect(const QueryContext& ctx,
                                    PreparedPlanPtr prepared,
                                    const Row& params,
                                    const SelectStmt* select,
                                    const std::string& text, PlanPtr* plan_out,
                                    obs::PlanProfile* profile) {
  ExecState state;
  state.profile = profile;
  if (!params.empty()) {
    state.params = &params;
    state.param_sig = RenderParamSig(params);
  }
  const auto start = std::chrono::steady_clock::now();
  // Armed before the plan is built: a plan-cache fill is charged to this
  // statement's budget, and the deadline covers bind and measure expansion.
  ArmGuard(ctx, &state.guard);

  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    if (prepared != nullptr) {
      state.plan_cache_outcome = 2;  // a bound plan was reused
    } else {
      MSQL_FAULT_POINT("engine.select");
      MSQL_ASSIGN_OR_RETURN(prepared,
                            BuildPlan(*select, text, nullptr, ctx, &state.guard,
                                      &state.plan_cache_outcome));
    }
    if (plan_out != nullptr) *plan_out = prepared->plan;

    {
      obs::ScopedSpan span(ctx.trace, "plan");
      state.options = ctx.options;
      if (ctx.options.measure_strategy != MeasureStrategy::kNaive &&
          !prepared->reads_system_tables) {
        // The generation the plan was bound at: a reused plan that a write
        // has since overtaken runs as if before that write, and the cache
        // rejects what it computes.
        state.shared_cache = &shared_cache_;
        state.catalog_generation = prepared->generation;
      }
      if (ctx.options.measure_strategy == MeasureStrategy::kGrouped &&
          ctx.options.measure_parallelism != 1) {
        state.measure_pool_provider = [this] { return MeasurePool(); };
      }
    }

    RelationPtr rel;
    {
      obs::ScopedSpan span(ctx.trace, "execute", &state.guard);
      Executor executor(&state);
      Result<RelationPtr> executed = executor.Execute(*prepared->plan, {});
      if (!executed.ok()) {
        span.set_status(executed.status());
        return executed.status();
      }
      rel = executed.take();
    }

    obs::ScopedSpan span(ctx.trace, "render", &state.guard);
    Result<ResultSet> rendered = RenderResult(*rel, &state);
    if (!rendered.ok()) span.set_status(rendered.status());
    return rendered;
  }();
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

Result<PreparedPlanPtr> Engine::BuildPlan(
    const SelectStmt& select, const std::string& text,
    const std::vector<TypeKind>* param_types, const QueryContext& ctx,
    QueryGuard* guard, int* outcome) {
  static const std::vector<TypeKind> kNoParams;
  const std::vector<TypeKind>& types =
      param_types != nullptr ? *param_types : kNoParams;
  const bool use_cache = ctx.options.enable_plan_cache;

  // Canonical probe: two spellings of one statement share one entry. The
  // generation is snapshotted *before* binding so an entry bound while a
  // catalog mutation is in flight records the older generation, and the
  // cache rejects it or purges it with that mutation.
  const uint64_t bind_generation = catalog_.generation();
  std::string canonical;
  std::string canonical_key;
  if (use_cache) {
    canonical = Unparse(select);
    canonical_key = CacheKey(ctx, canonical, types, bind_generation);
    if (PreparedPlanPtr cached = LookupPlan(plan_cache_, canonical_key)) {
      if (outcome != nullptr) *outcome = 2;
      // Alias the text too, so its pre-parse probe hits next time.
      if (!text.empty()) {
        plan_cache_.Insert(CacheKey(ctx, text, types, bind_generation),
                           cached, ApproxPlanBytes(*cached), bind_generation);
      }
      return cached;
    }
    if (outcome != nullptr) *outcome = 1;
  }

  Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                SystemTablesFor(ctx.options));
  if (param_types != nullptr) binder.set_param_types(*param_types);
  PlanPtr plan;
  int64_t expand_us = -1;  // sentinel: no measure expansion happened
  {
    obs::ScopedSpan span(ctx.trace, "bind");
    if (ctx.trace != nullptr) {
      binder.set_measure_expand_accumulator(&expand_us);
    }
    Result<PlanPtr> bound = BindToRun(&binder, select, ctx.options);
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
  if (param_types != nullptr) {
    if (binder.used_system_tables()) {
      // A prepared plan would freeze one telemetry snapshot and serve it
      // forever. Re-issue the SELECT as plain text instead.
      return Status(ErrorCode::kInvalidArgument,
                    "cannot prepare a statement over msql_system tables");
    }
    if (binder.param_count() != static_cast<int>(types.size())) {
      return Status(ErrorCode::kBind,
                    StrCat("statement references ", binder.param_count(),
                           " positional parameter(s) but ", types.size(),
                           " type(s) were declared"));
    }
  }

  auto entry = std::make_shared<PreparedPlan>();
  entry->sql = text.empty() ? canonical : text;
  entry->canonical = std::move(canonical);
  entry->user = ctx.user;
  entry->plan = std::move(plan);
  entry->param_types = types;
  entry->param_count = binder.param_count();
  entry->generation = bind_generation;
  entry->reads_system_tables = binder.used_system_tables();
  if (!use_cache || entry->reads_system_tables) {
    return PreparedPlanPtr(std::move(entry));
  }

  // Publish under the canonical key and the text key. The fill is charged
  // to the statement's guard: a cache fill must not dodge its byte budget.
  entry->fingerprint = FingerprintPlan(*entry->plan);
  const uint64_t bytes = ApproxPlanBytes(*entry);
  // A Prepare's fill is the wire's `net.plan_cache_fill` fault point.
  if (param_types != nullptr) MSQL_FAULT_POINT("net.plan_cache_fill");
  MSQL_RETURN_IF_ERROR(guard->ChargeBytes(bytes));
  PreparedPlanPtr prepared = std::move(entry);
  plan_cache_.Insert(canonical_key, prepared, bytes, bind_generation);
  if (!text.empty()) {
    plan_cache_.Insert(CacheKey(ctx, text, types, bind_generation), prepared,
                       bytes, bind_generation);
  }
  return prepared;
}

Result<PreparedPlanPtr> Engine::PrepareSelect(
    const std::string& sql, std::vector<TypeKind> param_types,
    const QueryContext& ctx) {
  const std::string text = TrimStatementText(sql);
  if (ctx.options.enable_plan_cache) {
    if (PreparedPlanPtr cached = LookupPlan(
            plan_cache_,
            CacheKey(ctx, text, param_types, catalog_.generation()))) {
      return cached;
    }
  }

  Parser parser(sql);
  MSQL_ASSIGN_OR_RETURN(StmtPtr stmt, parser.ParseSingleStatement());
  if (stmt->kind != StmtKind::kSelect || stmt->select == nullptr) {
    return Status(ErrorCode::kInvalidArgument,
                  "Prepare expects a single SELECT statement");
  }
  // Charge the fill against the preparing statement's memory budget so a
  // flood of prepares cannot dodge resource governance.
  QueryGuard guard;
  guard.Arm(ctx.options.timeout_ms, ctx.options.max_memory_bytes,
            ctx.options.max_result_rows, ctx.cancel, cancel_generation_);
  return BuildPlan(*stmt->select, text, &param_types, ctx, &guard, nullptr);
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
  return Traced(prepared->sql, ctx, [&](const QueryContext& tctx) {
    return RunSelect(tctx, prepared, coerced);
  });
}

Status Engine::ExecuteStmt(const Stmt& stmt, ResultSet* out,
                           const QueryContext& ctx, const std::string& text) {
  MSQL_FAULT_POINT("engine.stmt");
  switch (stmt.kind) {
    case StmtKind::kSelect: {
      MSQL_ASSIGN_OR_RETURN(
          *out, RunSelect(ctx, nullptr, {}, stmt.select.get(), text));
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
      MSQL_ASSIGN_OR_RETURN(
          std::string text,
          ExplainSelect(*stmt.select, stmt.explain_analyze, ctx));
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
    MSQL_ASSIGN_OR_RETURN(
        ResultSet rs, RunSelect(ctx, nullptr, {}, stmt.insert_select.get()));
    for (const Row& r : rs.rows()) MSQL_RETURN_IF_ERROR(stage(r));
  } else {
    // The VALUES rows bind once into a kValues plan and run under one
    // guard, without the plan cache.
    Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                  SystemTablesFor(ctx.options));
    MSQL_ASSIGN_OR_RETURN(PlanPtr values,
                          binder.BindValues(stmt.insert_rows, positions.size()));
    ExecState state;
    state.options = ctx.options;
    ArmGuard(ctx, &state.guard);
    Executor executor(&state);
    MSQL_ASSIGN_OR_RETURN(RelationPtr rel, executor.Execute(*values, {}));
    for (const Row& r : rel->rows) MSQL_RETURN_IF_ERROR(stage(r));
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
  if (stmt->kind != StmtKind::kSelect && stmt->kind != StmtKind::kExplain) {
    return Status(ErrorCode::kInvalidArgument, "EXPLAIN requires a SELECT");
  }
  return ExplainSelect(*stmt->select, /*analyze=*/false,
                       DefaultContext(nullptr));
}

Result<std::string> Engine::ExplainSelect(const SelectStmt& select,
                                          bool analyze,
                                          const QueryContext& ctx) {
  obs::ExplainOptions eopts;
  eopts.strategy = ctx.options.measure_strategy;
  if (!analyze) {
    Binder binder(&catalog_, ctx.user, ctx.options.max_recursion_depth,
                  SystemTablesFor(ctx.options));
    MSQL_ASSIGN_OR_RETURN(PlanPtr plan,
                          BindToRun(&binder, select, ctx.options));
    return obs::RenderPlanTree(*plan, eopts);
  }
  // EXPLAIN ANALYZE really runs the statement: the profile maps plan nodes
  // to observed rows/time/cache activity, and the summary is the query's
  // own stats. A statement that stops early — deadline, cancellation,
  // shed — still explains: the bound plan is rendered with an Outcome:
  // line instead of propagating the error, so the operator can see where
  // the budget went. Parse/bind failures (no plan) still fail the EXPLAIN.
  obs::PlanProfile profile;
  PlanPtr plan;
  Result<ResultSet> rs =
      RunSelect(ctx, nullptr, {}, &select, {}, &plan, &profile);
  if (!rs.ok() && plan == nullptr) return rs.status();
  eopts.profile = &profile;
  std::string text = obs::RenderPlanTree(*plan, eopts);
  if (rs.ok() && rs.value().stats() != nullptr) {
    text += obs::RenderAnalyzeSummary(*rs.value().stats(), eopts);
  }
  if (!rs.ok()) text += obs::RenderAnalyzeOutcome(rs.status());
  return text;
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
