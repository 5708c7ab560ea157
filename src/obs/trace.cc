#include "obs/trace.h"

#include <fstream>

#include "bench/json_writer.h"
#include "common/fault_injection.h"
#include "common/query_guard.h"

namespace msql::obs {

namespace {

int64_t ElapsedUsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void SpanToJson(const TraceSpan& span, bench::JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String(span.name);
  w->Key("start_us");
  w->Int(span.start_us);
  w->Key("duration_us");
  w->Int(span.duration_us);
  if (span.guard_bytes != 0) {
    w->Key("guard_bytes");
    w->Int(static_cast<int64_t>(span.guard_bytes));
  }
  if (!span.outcome.empty()) {
    w->Key("outcome");
    w->String(span.outcome);
  }
  if (!span.children.empty()) {
    w->Key("spans");
    w->BeginArray();
    for (const auto& child : span.children) SpanToJson(*child, w);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

QueryTrace::QueryTrace(uint64_t id, std::string sql, uint64_t session_id,
                       std::string user)
    : id_(id),
      sql_(std::move(sql)),
      session_id_(session_id),
      user_(std::move(user)),
      start_(std::chrono::steady_clock::now()) {
  root_.name = "query";
  open_.push_back(&root_);
}

int64_t QueryTrace::ElapsedUs() const { return ElapsedUsSince(start_); }

TraceSpan* QueryTrace::OpenSpan(const char* name) {
  auto span = std::make_unique<TraceSpan>();
  span->name = name;
  span->start_us = ElapsedUs();
  TraceSpan* raw = span.get();
  open_.back()->children.push_back(std::move(span));
  open_.push_back(raw);
  return raw;
}

void QueryTrace::CloseSpan(TraceSpan* span, uint64_t guard_bytes,
                           const Status& status) {
  span->duration_us = ElapsedUs() - span->start_us;
  span->guard_bytes = guard_bytes;
  if (!status.ok()) span->outcome = ErrorCodeName(status.code());
  // Tolerate out-of-order closes (early returns): pop back to this span.
  while (open_.size() > 1 && open_.back() != span) open_.pop_back();
  if (open_.size() > 1) open_.pop_back();
}

void QueryTrace::AddCompletedSpan(const char* name, int64_t start_us,
                                  int64_t duration_us) {
  auto span = std::make_unique<TraceSpan>();
  span->name = name;
  span->start_us = start_us;
  span->duration_us = duration_us;
  open_.back()->children.push_back(std::move(span));
}

void QueryTrace::Finish(const Status& status, uint64_t rows_returned) {
  total_us_ = ElapsedUs();
  root_.duration_us = total_us_;
  code_ = status.code();
  error_ = status.message();
  if (!status.ok()) root_.outcome = ErrorCodeName(status.code());
  rows_returned_ = rows_returned;
  open_.clear();
}

void QueryTrace::ToJson(std::ostream& out) const {
  bench::JsonWriter w(out);
  w.BeginObject();
  w.Key("id");
  w.Int(static_cast<int64_t>(id_));
  w.Key("sql");
  w.String(sql_);
  if (session_id_ != 0) {
    w.Key("session");
    w.Int(static_cast<int64_t>(session_id_));
  }
  if (!user_.empty()) {
    w.Key("user");
    w.String(user_);
  }
  if (!trace_id_.empty()) {
    w.Key("trace_id");
    w.String(trace_id_);
  }
  if (!peer_.empty()) {
    w.Key("peer");
    w.String(peer_);
  }
  w.Key("total_us");
  w.Int(total_us_);
  if (queue_wait_us_ > 0) {
    w.Key("queue_wait_us");
    w.Int(queue_wait_us_);
  }
  w.Key("status");
  w.String(ok() ? "ok" : ErrorCodeName(code_));
  if (!ok()) {
    w.Key("error");
    w.String(error_);
  }
  w.Key("rows");
  w.Int(static_cast<int64_t>(rows_returned_));
  w.Key("stats");
  w.BeginObject();
  for (const QueryCounterDef& c : kQueryCounters) {
    w.Key(c.field);
    w.Int(static_cast<int64_t>(stats_.*c.member));
  }
  w.Key("rows_charged");
  w.Int(static_cast<int64_t>(stats_.rows_charged));
  w.Key("bytes_charged");
  w.Int(static_cast<int64_t>(stats_.bytes_charged));
  w.EndObject();
  w.Key("spans");
  w.BeginArray();
  for (const auto& child : root_.children) SpanToJson(*child, &w);
  w.EndArray();
  w.EndObject();
}

ScopedSpan::ScopedSpan(QueryTrace* trace, const char* name,
                       const QueryGuard* guard)
    : trace_(trace), guard_(guard) {
  if (trace_ == nullptr) return;
  span_ = trace_->OpenSpan(name);
  if (guard_ != nullptr) bytes_at_open_ = guard_->bytes_charged();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  const uint64_t bytes =
      guard_ != nullptr ? guard_->bytes_charged() - bytes_at_open_ : 0;
  trace_->CloseSpan(span_, bytes, status_);
}

RingBufferSink::RingBufferSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Status RingBufferSink::Emit(const TracePtr& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_front(trace);
  while (traces_.size() > capacity_) traces_.pop_back();
  return Status::Ok();
}

std::vector<TracePtr> RingBufferSink::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TracePtr>(traces_.begin(), traces_.end());
}

SlowQueryLogSink::SlowQueryLogSink(int64_t threshold_ms, std::ostream* out)
    : threshold_ms_(threshold_ms), out_(out) {}

std::shared_ptr<SlowQueryLogSink> SlowQueryLogSink::OpenFile(
    int64_t threshold_ms, const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::app);
  auto sink = std::make_shared<SlowQueryLogSink>(threshold_ms, file.get());
  sink->owned_ = std::move(file);
  return sink;
}

Status SlowQueryLogSink::Emit(const TracePtr& trace) {
  if (trace->total_us() < threshold_ms_ * 1000) return Status::Ok();
  MSQL_FAULT_POINT("obs.slow_log_write");
  std::lock_guard<std::mutex> lock(mu_);
  trace->ToJson(*out_);
  *out_ << "\n";
  out_->flush();
  if (!*out_) {
    return Status(ErrorCode::kIo, "slow-query log write failed");
  }
  return Status::Ok();
}

void TraceCollector::AddSink(std::shared_ptr<TraceSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

bool TraceCollector::HasSinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !sinks_.empty();
}

void TraceCollector::Publish(const TracePtr& trace, Counter* err_counter) {
  std::vector<std::shared_ptr<TraceSink>> sinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sinks = sinks_;
  }
  for (const auto& sink : sinks) {
    Status st = Status::Ok();
    // Inline MSQL_FAULT_POINT: Publish returns void, and an injected or
    // real sink failure must degrade to a counter bump, not an error.
    if (FaultInjector::Instance().active()) {
      st = FaultInjector::Instance().Checkpoint("obs.trace_sink");
    }
    if (st.ok()) st = sink->Emit(trace);
    if (!st.ok() && err_counter != nullptr) err_counter->Increment();
  }
}

}  // namespace msql::obs
