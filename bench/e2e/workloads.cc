#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "binder/binder.h"
#include "common/string_util.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "parser/parser.h"
#include "testing/compare.h"
#include "yardstick.h"

namespace msql::e2e {
namespace {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// EngineOptions as msqld ships them (tools/msqld.cc).
EngineOptions ShippedOptions() {
  EngineOptions o;
  o.enable_plan_cache = true;
  o.enable_system_tables = true;
  return o;
}

void AddEnv(Outcome* out, const std::string& key, const std::string& value) {
  out->env.emplace_back(key, value);
}

void AddSizesEnv(const Sizes& s, Outcome* out) {
  AddEnv(out, "sizes.orders", std::to_string(s.orders));
  AddEnv(out, "sizes.products", std::to_string(s.products));
  AddEnv(out, "sizes.customers", std::to_string(s.customers));
}

void AddOptionsEnv(const EngineOptions& o, Outcome* out) {
  AddEnv(out, "engine.measure_strategy",
         std::to_string(static_cast<int>(o.measure_strategy)));
  AddEnv(out, "engine.exec_mode", std::to_string(static_cast<int>(o.exec_mode)));
  AddEnv(out, "engine.measure_parallelism",
         std::to_string(o.measure_parallelism));
  AddEnv(out, "engine.enable_plan_cache", o.enable_plan_cache ? "1" : "0");
  AddEnv(out, "engine.plan_cache_max_entries",
         std::to_string(o.plan_cache_max_entries));
  AddEnv(out, "engine.enable_system_tables", o.enable_system_tables ? "1" : "0");
  AddEnv(out, "engine.shared_cache_max_bytes",
         std::to_string(SharedMeasureCache::kDefaultMaxBytes));
}

// Order-sensitive digest of a result. Doubles are hashed at 12 significant
// digits: the same text must give the same answer, not the same last bit.
uint64_t Checksum(const ResultSet& rs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  for (const Row& row : rs.rows()) {
    for (const Value& v : row) {
      const auto kind = static_cast<uint8_t>(v.kind());
      mix(&kind, 1);
      if (v.kind() == TypeKind::kDouble) {
        char buf[32];
        const int n = std::snprintf(buf, sizeof(buf), "%.12g", v.double_val());
        mix(buf, static_cast<size_t>(n));
      } else if (v.kind() == TypeKind::kString) {
        mix(v.str().data(), v.str().size());
      } else if (!v.is_null()) {
        const int64_t i = v.int_val();
        mix(&i, sizeof(i));
      }
    }
  }
  return h;
}

void NoteError(const Status& st, const std::string& what, Outcome* out) {
  if (out->failed == 0) {
    std::fprintf(stderr, "msqlbench: %s failed: %s\n", what.c_str(),
                 st.ToString().c_str());
  }
  ++out->failed;
}

void NoteMismatch(const std::string& what, const std::string& detail,
                  Outcome* out) {
  if (out->mismatched == 0) {
    std::fprintf(stderr, "msqlbench: wrong result for %s: %s\n", what.c_str(),
                 detail.c_str());
  }
  ++out->mismatched;
}

void Columnarize(Engine* db, const char* table, SpanLog* log) {
  const auto entry = db->catalog().Find(table);
  if (entry == nullptr || entry->table == nullptr) return;
  Timed(log, "catalog.columnarize",
        [&] { return entry->table->ColumnsFor(entry->table->snapshot()); });
}

// Tables, bulk loads and views. With a log, the loads and the columnar
// images a first scan would build are recorded as one "load" op.
Status Load(Engine* db, std::vector<Row> orders, std::vector<Row> customers,
            int view_stack, SpanLog* log) {
  for (const std::string& ddl : SchemaDdl()) {
    MSQL_RETURN_IF_ERROR(db->Execute(ddl));
  }
  if (log != nullptr) log->BeginOp("load", false);
  Status st = Timed(log, "catalog.insert", [&] {
    return db->InsertRows("Orders", std::move(orders));
  });
  if (st.ok()) {
    st = Timed(log, "catalog.insert", [&] {
      return db->InsertRows("Customers", std::move(customers));
    });
  }
  if (log != nullptr) {
    Columnarize(db, "Orders", log);
    Columnarize(db, "Customers", log);
    log->EndOp();
  }
  MSQL_RETURN_IF_ERROR(st);
  for (const std::string& ddl : ViewDdl(view_stack)) {
    MSQL_RETURN_IF_ERROR(db->Execute(ddl));
  }
  return Status::Ok();
}

// What shipping `rs` to a client costs: one ResultBatch through the wire
// codec, both ways.
void ShipResult(SpanLog* log, const ResultSet& rs, Op* op) {
  net::ResultBatchMsg msg;
  msg.kind = 1;
  msg.columns = rs.column_names();
  for (const DataType& t : rs.column_types()) msg.types.push_back(t.kind);
  msg.rows = rs.rows();
  msg.total_rows = rs.num_rows();
  double encode_us = 0, decode_us = 0;
  const std::string bytes = Timed(
      log, "net.encode", [&] { return net::EncodeResultBatch(msg); },
      &encode_us);
  Timed(
      log, "net.decode", [&] { return net::DecodeResultBatch(bytes); },
      &decode_us);
  op->Set("encode_us", encode_us);
  op->Set("decode_us", decode_us);
  op->Set("result_bytes", static_cast<double>(bytes.size()));
}

// One read as an embedder issues it. Untraced: Engine::Query. Traced: the
// same work split at the engine's public seams — PrepareSelect (the plan
// cache probe; parse and bind on a miss) then QueryPlanned — which is the
// path Engine::Query takes. After a plan-cache miss, Parser::Parse and
// Binder::Bind are replayed on the same text so their share of the prepare
// can be attributed.
Result<ResultSet> EmbeddedRead(Engine* db, const Statement& s, SpanLog* log,
                               bool timed) {
  if (log == nullptr) return db->Query(s.text);
  Op& op = log->BeginOp("read", timed);
  op.tmpl = s.tmpl;
  op.measure = s.measure;
  const uint64_t misses = db->plan_cache().stats().misses;
  double prepare_us = 0;
  Result<PreparedPlanPtr> prepared = Timed(
      log, "engine.prepare", [&] { return db->PrepareSelect(s.text, {}); },
      &prepare_us);
  if (!prepared.ok()) {
    log->EndOp();
    return prepared.status();
  }
  const bool hit = db->plan_cache().stats().misses == misses;
  op.Set("plan_cache_hit", hit ? 1 : 0);
  double prepare_self_us = prepare_us;
  if (!hit) {
    double parse_us = 0, bind_us = 0;
    Result<StmtPtr> stmt =
        Timed(log, "parser.parse", [&] { return Parser::Parse(s.text); },
              &parse_us);
    if (stmt.ok() && stmt.value()->select != nullptr) {
      Binder binder(&db->catalog(), db->user(),
                    db->options().max_recursion_depth,
                    db->options().enable_system_tables ? &db->system_tables()
                                                       : nullptr);
      int64_t expand_us = -1;
      binder.set_measure_expand_accumulator(&expand_us);
      Timed(log, "binder.bind",
            [&] { return binder.Bind(*stmt.value()->select); }, &bind_us);
      op.Set("parse_us", parse_us);
      op.Set("bind_us", bind_us);
      if (expand_us >= 0) op.Set("measure_expand_us", static_cast<double>(expand_us));
      prepare_self_us = std::max(0.0, prepare_us - parse_us - bind_us);
    }
  }
  op.Set("prepare_us", prepare_self_us);
  double execute_us = 0;
  Result<ResultSet> result = Timed(
      log, "engine.execute",
      [&] { return db->QueryPlanned(prepared.value(), {}); }, &execute_us);
  op.Set("execute_us", execute_us);
  op.Set("rtt_us", prepare_us + execute_us);
  if (result.ok()) {
    const ResultSet& rs = result.value();
    if (const auto& stats = rs.stats()) {
      op.Set("server_us", static_cast<double>(stats->total_us));
      op.Set("rows_charged", static_cast<double>(stats->rows_charged));
      op.Set("rows", static_cast<double>(rs.num_rows()));
    }
    ShipResult(log, rs, &op);
  }
  log->EndOp();
  return result;
}

// One read over the wire. Traced: the client asks for the server's
// per-phase footer, which stands in for the parse / bind / execute spans
// the server-side engine does not expose to the benchmark.
Result<ResultSet> WireRead(net::Client* client, const std::string& text,
                           const Statement& s, SpanLog* log, bool timed) {
  if (log == nullptr) return client->Query(text);
  Op& op = log->BeginOp("read", timed);
  op.tmpl = s.tmpl;
  op.measure = s.measure;
  double rtt_us = 0;
  Result<ResultSet> result =
      Timed(log, "net.rtt", [&] { return client->Query(text); }, &rtt_us);
  if (result.ok() && result.value().stats() != nullptr) {
    const QueryStats& st = *result.value().stats();
    const bool hit = st.plan_cache == QueryStats::PlanCacheOutcome::kHit;
    op.Set("plan_cache_hit", hit ? 1 : 0);
    op.Set("rtt_us", rtt_us);
    op.Set("server_us", static_cast<double>(st.total_us));
    op.Set("admission_wait_us", static_cast<double>(st.admission_wait_us));
    op.Set("queue_wait_us", static_cast<double>(st.queue_wait_us));
    if (!hit) {
      op.Set("parse_us", static_cast<double>(st.parse_us));
      op.Set("bind_us", static_cast<double>(st.bind_us));
      if (s.measure) {
        op.Set("measure_expand_us", static_cast<double>(st.measure_expand_us));
      }
    }
    // The plan, execute and render phases are what QueryPlanned runs
    // in-process; the rest of the server's select pipeline besides bind
    // (canonical unparse, plan-cache probe, stats) is the prepare overhead.
    const int64_t run_us = st.plan_us + st.execute_us + st.render_us;
    op.Set("prepare_us", static_cast<double>(std::max<int64_t>(
                             0, st.total_us - st.bind_us - run_us)));
    op.Set("execute_us", static_cast<double>(run_us));
    ShipResult(log, result.value(), &op);
  }
  log->EndOp();
  return result;
}

// One workload: a serving state built from scratch, checked, then driven
// in identical rounds.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  // Builds the serving state from scratch and runs one warm pass over the
  // hot texts.
  virtual Result<SetupTime> Setup(SpanLog* log) = 0;
  // Correctness checks before timing starts.
  virtual void Check(SpanLog* log, Outcome* out) = 0;
  // Untimed preparation of every round after the first.
  virtual Status Reset(SpanLog*) { return Status::Ok(); }
  // One round of the op sequence; `trace` is set in traced rounds.
  virtual RoundStats Round(TraceData* trace, Outcome* out) = 0;
  // Correctness checks after a round, outside its timing and the engine
  // counters attributed to it.
  virtual void CheckRound(Outcome*) {}
  virtual Engine* engine() = 0;
  // Timed set-ups per run; setup_s is their median.
  virtual int Setups() const { return 5; }
};

// Yardstick runs on each side of an operation whose median gives its speed:
// the machine's speed changes within a second, and one run is noisy.
constexpr size_t kYardstickWindow = 3;

// Replaces each operation's yardstick time, taken right after it, by the
// median over the operations around it in the same client's sequence.
void SmoothYardstick(std::vector<OpTime>* ops) {
  std::vector<double> after;
  for (const OpTime& op : *ops) after.push_back(op.yardstick_ms);
  for (size_t i = 0; i < ops->size(); ++i) {
    const size_t lo = i > kYardstickWindow ? i - kYardstickWindow : 0;
    const size_t hi = std::min(after.size(), i + kYardstickWindow + 1);
    (*ops)[i].yardstick_ms = Percentile(
        std::vector<double>(after.begin() + lo, after.begin() + hi), 0.5);
  }
}

OpTime::Kind KindOf(const Statement& s) {
  return s.measure ? OpTime::kMeasure : OpTime::kPlain;
}

// A timed embedded read by a round's one client: its time into `round`,
// failures into `out`; then one yardstick run.
std::optional<ResultSet> TimedRead(Engine* db, const Statement& s,
                                   SpanLog* log, Yardstick* yardstick,
                                   Outcome* out, RoundStats* round) {
  ++round->issued;
  const auto t0 = Clock::now();
  Result<ResultSet> r = EmbeddedRead(db, s, log, true);
  const double ms = MsSince(t0);
  round->seconds += ms / 1000;
  const double yardstick_ms = yardstick->RunMs();
  if (!r.ok()) {
    NoteError(r.status(), s.text, out);
    return std::nullopt;
  }
  ++round->completed;
  round->ops.push_back({KindOf(s), s.tmpl, ms, yardstick_ms});
  return r.take();
}

// The set-up's time in engine (and server) calls, with a yardstick run
// after each of its warm-pass reads; the yardstick's time is left out.
class SetupClock {
 public:
  explicit SetupClock(Yardstick* yardstick) : yardstick_(yardstick) {}

  void AfterRead() {
    const auto t0 = Clock::now();
    yardstick_ms_.push_back(yardstick_->RunMs());
    paused_s_ += SecondsSince(t0);
  }

  SetupTime Done() const {
    return {SecondsSince(start_) - paused_s_, Percentile(yardstick_ms_, 0.5)};
  }

 private:
  Yardstick* yardstick_;
  const Clock::time_point start_ = Clock::now();
  double paused_s_ = 0;
  std::vector<double> yardstick_ms_;
};

// Builds a fresh embedded engine over `data` and runs every text once.
Result<SetupTime> EmbeddedSetup(const Dataset& data,
                                const std::vector<Pair>& pairs,
                                std::unique_ptr<Engine>* db, SpanLog* log,
                                Yardstick* yardstick) {
  db->reset();
  std::vector<Row> orders = data.orders;
  std::vector<Row> customers = data.customers;
  SetupClock clock(yardstick);
  *db = std::make_unique<Engine>(ShippedOptions());
  MSQL_RETURN_IF_ERROR(
      Load(db->get(), std::move(orders), std::move(customers), 0, log));
  for (const Pair& p : pairs) {
    for (const Statement* s : {&p.measure, &p.plain}) {
      Result<ResultSet> r = EmbeddedRead(db->get(), *s, log, false);
      if (!r.ok()) return r.status();
      clock.AfterRead();
    }
  }
  return clock.Done();
}

// Runs each measure/twin pair and compares the two with DiffResults; fills
// `expected` (when given) with each text's checksum.
void CheckPairs(Engine* db, const std::vector<Pair>& pairs, Outcome* out,
                std::unordered_map<std::string, uint64_t>* expected) {
  for (const Pair& p : pairs) {
    Result<ResultSet> m = db->Query(p.measure.text);
    Result<ResultSet> q = db->Query(p.plain.text);
    if (!m.ok() || !q.ok()) {
      NoteError(m.ok() ? q.status() : m.status(), "check", out);
      continue;
    }
    if (auto diff = testing::DiffResults(m.value(), q.value())) {
      NoteMismatch(p.measure.text, *diff, out);
    }
    if (expected != nullptr) {
      (*expected)[p.measure.text] = Checksum(m.value());
      (*expected)[p.plain.text] = Checksum(q.value());
    }
  }
}

// The steady-state BI refresh: one client in a closed loop over a static
// Orders table, alternating measure and plain forms over 64 texts. Every
// cache is warm and fits. A round passes over the pairs twice, in a seeded
// order drawn afresh each round, running each pair once measure-first and
// once plain-first. What a read finds in the processor's caches depends on
// the reads before it, so one fixed order would give each seed its own
// cost; many orders per run average that out.
class Dashboard : public Workload {
 public:
  Dashboard(const Config& cfg, Outcome* out)
      : sizes_(cfg.smoke ? Sizes{2000, 20, 50, 0, 0}
                         : Sizes{50000, 100, 500, 0, 0}),
        data_(GenerateData(cfg.seed, sizes_)),
        pairs_(MakePairs(cfg.seed, 4, sizes_, "EO", true)),
        order_rng_(cfg.seed ^ 0xDA5Bull) {
    for (size_t i = 0; i < pairs_.size(); ++i) order_.push_back(i);
    AddSizesEnv(sizes_, out);
    AddEnv(out, "texts", std::to_string(2 * pairs_.size()));
    AddEnv(out, "ops_per_round", std::to_string(4 * pairs_.size()));
    AddOptionsEnv(ShippedOptions(), out);
  }

  Result<SetupTime> Setup(SpanLog* log) override {
    return EmbeddedSetup(data_, pairs_, &db_, log, &yardstick_);
  }

  void Check(SpanLog*, Outcome* out) override {
    CheckPairs(db_.get(), pairs_, out, &expected_);
  }

  RoundStats Round(TraceData* trace, Outcome* out) override {
    std::optional<SpanLog> log;
    if (trace != nullptr) log.emplace(trace->epoch);
    SpanLog* lp = log ? &*log : nullptr;
    RoundStats round;
    order_rng_.Shuffle(&order_);
    for (size_t pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < order_.size(); ++i) {
        const Pair& p = pairs_[order_[i]];
        const bool measure_first = (i + pass) % 2 == 0;
        for (const Statement* s : {measure_first ? &p.measure : &p.plain,
                                   measure_first ? &p.plain : &p.measure}) {
          std::optional<ResultSet> r =
              TimedRead(db_.get(), *s, lp, &yardstick_, out, &round);
          if (r && Checksum(*r) != expected_[s->text]) {
            NoteMismatch(s->text, "checksum differs from the checked result",
                         out);
          }
        }
      }
    }
    SmoothYardstick(&round.ops);
    if (lp != nullptr) trace->Absorb(lp);
    return round;
  }

  Engine* engine() override { return db_.get(); }

 private:
  Sizes sizes_;
  Dataset data_;
  std::vector<Pair> pairs_;
  Rng order_rng_;
  std::vector<size_t> order_;
  std::unordered_map<std::string, uint64_t> expected_;
  Yardstick yardstick_;
  std::unique_ptr<Engine> db_;
};

// Writes beside reads: each cycle inserts a batch of new orders, then runs
// one measure read and one plain read, so every read after a write pays
// cold measure evaluation, plan re-prepare and re-columnarization. Each
// round starts from a freshly loaded engine so every round sees the same
// table sizes.
class Ingest : public Workload {
 public:
  Ingest(const Config& cfg, Outcome* out)
      : sizes_(cfg.smoke ? Sizes{2000, 20, 50, 8, 10}
                         : Sizes{30000, 100, 500, 64, 50}),
        data_(GenerateData(cfg.seed, sizes_)),
        pairs_(MakePairs(cfg.seed, 4, sizes_, "EO", true)) {
    AddSizesEnv(sizes_, out);
    AddEnv(out, "sizes.batches_per_round", std::to_string(sizes_.batches));
    AddEnv(out, "sizes.batch_rows", std::to_string(sizes_.batch_rows));
    AddEnv(out, "texts", std::to_string(2 * pairs_.size()));
    AddEnv(out, "ops_per_round", std::to_string(3 * sizes_.batches));
    AddOptionsEnv(ShippedOptions(), out);
  }

  Result<SetupTime> Setup(SpanLog* log) override {
    return EmbeddedSetup(data_, pairs_, &db_, log, &yardstick_);
  }

  void Check(SpanLog*, Outcome* out) override {
    CheckPairs(db_.get(), pairs_, out, nullptr);
  }

  // A freshly loaded engine without the set-up's warm pass: the round's
  // first write leaves every cache cold anyway.
  Status Reset(SpanLog* log) override {
    db_.reset();
    db_ = std::make_unique<Engine>(ShippedOptions());
    return Load(db_.get(), data_.orders, data_.customers, 0, log);
  }

  RoundStats Round(TraceData* trace, Outcome* out) override {
    std::optional<SpanLog> log;
    if (trace != nullptr) log.emplace(trace->epoch);
    SpanLog* lp = log ? &*log : nullptr;
    RoundStats round;
    rows_ = static_cast<int64_t>(data_.orders.size());
    revenue_ = data_.orders_revenue;
    for (int c = 0; c < sizes_.batches; ++c) {
      std::vector<Row> batch = data_.new_orders[static_cast<size_t>(c)];
      if (Write(std::move(batch), lp, out, &round)) {
        rows_ += sizes_.batch_rows;
        revenue_ += data_.batch_revenue[static_cast<size_t>(c)];
      }
      // Each pair comes up twice a round, once measure-first and once
      // plain-first.
      const size_t pass = static_cast<size_t>(c) / pairs_.size();
      const Pair& p = pairs_[static_cast<size_t>(c) % pairs_.size()];
      std::optional<ResultSet> m, q;
      if ((static_cast<size_t>(c) + pass) % 2 == 0) {
        m = TimedRead(db_.get(), p.measure, lp, &yardstick_, out, &round);
        q = TimedRead(db_.get(), p.plain, lp, &yardstick_, out, &round);
      } else {
        q = TimedRead(db_.get(), p.plain, lp, &yardstick_, out, &round);
        m = TimedRead(db_.get(), p.measure, lp, &yardstick_, out, &round);
      }
      if (m && q) {
        if (auto diff = testing::DiffResults(*m, *q)) {
          NoteMismatch(p.measure.text, *diff, out);
        }
      }
    }
    SmoothYardstick(&round.ops);
    if (lp != nullptr) trace->Absorb(lp);
    return round;
  }

  // COUNT(*) and SUM(revenue) of Orders against the generated totals.
  void CheckRound(Outcome* out) override {
    Result<ResultSet> r =
        db_->Query("SELECT COUNT(*) AS n, SUM(revenue) AS r FROM Orders");
    if (!r.ok()) {
      NoteError(r.status(), "totals check", out);
      return;
    }
    const int64_t got_rows = r.value().Get(0, 0).int_val();
    const int64_t got_revenue = r.value().Get(0, 1).int_val();
    if (got_rows != rows_ || got_revenue != revenue_) {
      NoteMismatch("Orders totals",
                   StrCat("COUNT(*) ", got_rows, " SUM(revenue) ", got_revenue,
                          ", generated ", rows_, " and ", revenue_),
                   out);
    }
  }

  Engine* engine() override { return db_.get(); }

 private:
  bool Write(std::vector<Row> batch, SpanLog* log, Outcome* out,
             RoundStats* round) {
    ++round->issued;
    if (log != nullptr) log->BeginOp("write", true);
    const auto t0 = Clock::now();
    Status st = Timed(log, "catalog.insert", [&] {
      return db_->InsertRows("Orders", std::move(batch));
    });
    if (log != nullptr) {
      Columnarize(db_.get(), "Orders", log);
      log->EndOp();
    }
    const double ms = MsSince(t0);
    round->seconds += ms / 1000;
    const double yardstick_ms = yardstick_.RunMs();
    if (!st.ok()) {
      NoteError(st, "InsertRows", out);
      return false;
    }
    ++round->completed;
    round->ops.push_back({OpTime::kWrite, -1, ms, yardstick_ms});
    return true;
  }

  Sizes sizes_;
  Dataset data_;
  std::vector<Pair> pairs_;
  Yardstick yardstick_;
  std::unique_ptr<Engine> db_;
  // What Orders should hold after the writes of the last round.
  int64_t rows_ = 0;
  int64_t revenue_ = 0;
};

// Prepare, wire and admission: an in-process msqld on loopback with two
// client connections, each driven by its own thread in a closed loop.
// Measure forms read the top of a 24-level view stack. Three statements in
// four come from a hot set of 16 that the plan cache serves; the fourth
// carries a unique LIMIT literal (larger than any result, so the answer is
// unchanged) and misses the cache.
class Wire : public Workload {
 public:
  static constexpr int kViewStack = 24;
  static constexpr int kClients = 2;
  static constexpr int kStatementsPerClient = 64;  // per round
  static constexpr int kMissEvery = 4;

  Wire(const Config& cfg, Outcome* out)
      : sizes_(cfg.smoke ? Sizes{500, 20, 50, 0, 0} : Sizes{5000, 100, 500, 0, 0}),
        data_(GenerateData(cfg.seed, sizes_)) {
    for (const Pair& p : MakePairs(cfg.seed, 1, sizes_, StrCat("L", kViewStack),
                                   false)) {
      hot_.push_back(p.measure);
      hot_.push_back(p.plain);
    }
    options_ = ShippedOptions();
    // One measure worker per statement: client and server threads together
    // stay within four cores.
    options_.measure_parallelism = 1;
    server_options_.num_handler_threads = 1;
    server_options_.num_worker_threads = 2;
    AddSizesEnv(sizes_, out);
    AddEnv(out, "view_stack", std::to_string(kViewStack));
    AddEnv(out, "hot_texts", std::to_string(hot_.size()));
    AddEnv(out, "clients", std::to_string(kClients));
    AddEnv(out, "ops_per_round", std::to_string(kClients * kStatementsPerClient));
    AddEnv(out, "miss_every", std::to_string(kMissEvery));
    AddOptionsEnv(options_, out);
    AddEnv(out, "server.num_handler_threads",
           std::to_string(server_options_.num_handler_threads));
    AddEnv(out, "server.num_worker_threads",
           std::to_string(server_options_.num_worker_threads));
  }

  ~Wire() override { Stop(); }

  // A set-up takes about 0.1 s; more of them give its median.
  int Setups() const override { return 15; }

  Result<SetupTime> Setup(SpanLog* log) override {
    Stop();
    std::vector<Row> orders = data_.orders;
    std::vector<Row> customers = data_.customers;
    SetupClock clock(&yardsticks_[0]);
    db_ = std::make_unique<Engine>(options_);
    MSQL_RETURN_IF_ERROR(Load(db_.get(), std::move(orders),
                              std::move(customers), kViewStack, log));
    server_ = std::make_unique<net::MsqldServer>(db_.get(), server_options_);
    MSQL_RETURN_IF_ERROR(server_->Start());
    for (int c = 0; c < kClients; ++c) {
      auto client = std::make_unique<net::Client>();
      net::ClientOptions copts;
      copts.user = "bench";
      MSQL_RETURN_IF_ERROR(client->Connect("127.0.0.1", server_->port(), copts));
      clients_.push_back(std::move(client));
    }
    clients_[0]->SetTrace(log != nullptr);
    for (const Statement& s : hot_) {
      Result<ResultSet> r = WireRead(clients_[0].get(), s.text, s, log, false);
      if (!r.ok()) return r.status();
      clock.AfterRead();
    }
    return clock.Done();
  }

  // The embedded engine's answer for every hot text is the reference the
  // wire results are checked against. Traced, these reference reads also
  // give exec.rows_per_result_row, which the wire footer does not carry.
  void Check(SpanLog* log, Outcome* out) override {
    for (const Statement& s : hot_) {
      Result<ResultSet> r = db_->Query(s.text);
      if (!r.ok()) {
        NoteError(r.status(), "reference read", out);
        continue;
      }
      expected_[s.text] = Checksum(r.value());
      if (log != nullptr && r.value().stats() != nullptr) {
        Op& op = log->BeginOp("reference", false);
        op.Set("rows_charged",
               static_cast<double>(r.value().stats()->rows_charged));
        op.Set("rows", static_cast<double>(r.value().num_rows()));
        log->EndOp();
      }
    }
    std::vector<Pair> pairs;
    for (size_t i = 0; i + 1 < hot_.size(); i += 2) {
      pairs.push_back({hot_[i], hot_[i + 1]});
    }
    CheckPairs(db_.get(), pairs, out, nullptr);
  }

  RoundStats Round(TraceData* trace, Outcome* out) override {
    std::vector<ClientPart> parts(kClients);
    std::vector<SpanLog> logs;
    if (trace != nullptr) logs.assign(kClients, SpanLog(trace->epoch));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &parts, &logs] {
        DriveClient(c, logs.empty() ? nullptr : &logs[c], &parts[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    RoundStats round;
    round.clients = kClients;
    for (int c = 0; c < kClients; ++c) {
      ClientPart& part = parts[c];
      round.issued += part.issued;
      round.completed += part.completed;
      round.seconds += part.seconds / kClients;
      SmoothYardstick(&part.ops);
      round.ops.insert(round.ops.end(), part.ops.begin(), part.ops.end());
      if (part.failed > 0) {
        NoteError(part.error, "wire read", out);
        out->failed += part.failed - 1;
      }
      if (part.mismatched > 0) {
        NoteMismatch(part.mismatch, "checksum differs from the embedded result",
                     out);
        out->mismatched += part.mismatched - 1;
      }
      if (trace != nullptr) trace->Absorb(&logs[c]);
    }
    return round;
  }

  Engine* engine() override { return db_.get(); }

 private:
  // One client thread's share of a round; merged after the join.
  struct ClientPart {
    int64_t issued = 0, completed = 0, failed = 0, mismatched = 0;
    double seconds = 0;  // sum of the client's latencies
    Status error;
    std::string mismatch;
    std::vector<OpTime> ops;
  };

  void DriveClient(int c, SpanLog* log, ClientPart* part) {
    net::Client* client = clients_[static_cast<size_t>(c)].get();
    Yardstick& yardstick = yardsticks_[static_cast<size_t>(c)];
    client->SetTrace(log != nullptr);
    size_t hot = static_cast<size_t>(8 * c);
    size_t miss = static_cast<size_t>(3 + 8 * c);
    for (int i = 0; i < kStatementsPerClient; ++i) {
      const bool is_miss = i % kMissEvery == kMissEvery - 1;
      const Statement& s = hot_[(is_miss ? miss++ : hot++) % hot_.size()];
      const std::string text =
          is_miss ? StrCat(s.text, " LIMIT ", 1000000 + next_unique_++)
                  : s.text;
      ++part->issued;
      const auto t0 = Clock::now();
      Result<ResultSet> r = WireRead(client, text, s, log, true);
      const double ms = MsSince(t0);
      part->seconds += ms / 1000;
      const double yardstick_ms = yardstick.RunMs();
      if (!r.ok()) {
        if (part->failed++ == 0) part->error = r.status();
        continue;
      }
      ++part->completed;
      part->ops.push_back({KindOf(s), s.tmpl, ms, yardstick_ms});
      const auto expected = expected_.find(s.text);
      if (expected == expected_.end() ||
          Checksum(r.value()) != expected->second) {
        if (part->mismatched++ == 0) part->mismatch = text;
      }
    }
  }

  void Stop() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  Sizes sizes_;
  Dataset data_;
  std::vector<Statement> hot_;
  EngineOptions options_;
  net::ServerOptions server_options_;
  std::unordered_map<std::string, uint64_t> expected_;
  std::atomic<int64_t> next_unique_{0};
  Yardstick yardsticks_[kClients];  // one per client thread
  std::unique_ptr<Engine> db_;
  std::unique_ptr<net::MsqldServer> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
};

// Set-ups (each timed), the pre-timing check, then whole rounds until
// `cfg.seconds` have passed. Traced runs alternate untraced and
// traced rounds, so the tracing overhead is measured under the same
// conditions.
void Drive(Workload* w, const Config& cfg, Outcome* out) {
  TraceData& trace = out->trace;
  // A fixed number of set-ups, so every run does the same work before
  // timing and ends with the same heap.
  const int setups = cfg.smoke ? 2 : w->Setups();
  for (int i = 0; i < setups; ++i) {
    SpanLog log(trace.epoch);
    Result<SetupTime> s = w->Setup(cfg.traced ? &log : nullptr);
    if (!s.ok()) {
      NoteError(s.status(), "set-up", out);
      return;
    }
    out->setups.push_back(s.value());
    trace.Absorb(&log);
  }
  {
    SpanLog log(trace.epoch);
    w->Check(cfg.traced ? &log : nullptr, out);
    trace.Absorb(&log);
  }
  double traced_s = 0, untraced_s = 0;
  int64_t traced_ops = 0, untraced_ops = 0;
  // The budget is wall time, resets and yardstick runs included, so a run
  // takes its set-ups plus `cfg.seconds` whatever the workload.
  const auto start = Clock::now();
  for (int r = 0;; ++r) {
    const bool traced = cfg.traced && r % 2 == 1;
    if (r > 0) {
      SpanLog log(trace.epoch);
      Status st = w->Reset(traced ? &log : nullptr);
      trace.Absorb(&log);
      if (!st.ok()) {
        NoteError(st, "round reset", out);
        return;
      }
    }
    const EngineStats before = w->engine()->stats();
    RoundStats round = w->Round(traced ? &trace : nullptr, out);
    out->attempted += round.issued;
    if (traced) {
      const EngineStats after = w->engine()->stats();
      AddCountDeltas(before, after, &trace.counts);
      trace.shared_cache_bytes =
          std::max(trace.shared_cache_bytes, after.shared_cache_bytes);
      traced_s += round.seconds;
      traced_ops += round.completed;
    } else {
      untraced_s += round.seconds;
      untraced_ops += round.completed;
      out->rounds.push_back(std::move(round));
    }
    w->CheckRound(out);
    const bool both_kinds = !cfg.traced || r >= 1;
    if (SecondsSince(start) >= cfg.seconds && both_kinds) break;
  }
  if (untraced_s > 0) trace.untraced_qps = untraced_ops / untraced_s;
  if (traced_s > 0) trace.traced_qps = traced_ops / traced_s;
}

}  // namespace

bool RunWorkload(const Config& cfg, Outcome* out) {
  std::unique_ptr<Workload> w;
  if (cfg.workload == "dashboard") {
    w = std::make_unique<Dashboard>(cfg, out);
  } else if (cfg.workload == "ingest") {
    w = std::make_unique<Ingest>(cfg, out);
  } else if (cfg.workload == "wire") {
    w = std::make_unique<Wire>(cfg, out);
  } else {
    return false;
  }
  Drive(w.get(), cfg, out);
  return true;
}

}  // namespace msql::e2e
