#ifndef MSQL_BENCH_E2E_SPANS_H_
#define MSQL_BENCH_E2E_SPANS_H_

// The traced run's record: one Op per operation of the stream (a read, a
// write, a load) and one Span around each call the benchmark makes into an
// engine layer. Spans are kept in memory and written as JSON when the run
// ends; the per-layer metrics are computed from the same records.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace msql::e2e {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Op {
  int64_t id = 0;
  const char* kind = "";  // "read" | "write" | "load" | "reference"
  int tmpl = -1;          // template index of a read
  bool measure = false;   // measure form (vs plain twin)
  bool timed = false;     // issued in a timed round (vs set-up)
  // Numbers the op reported, in µs unless the name says otherwise: the
  // engine's own QueryStats / wire footer, and values derived from spans.
  std::vector<std::pair<const char*, double>> attrs;

  void Set(const char* key, double value) { attrs.emplace_back(key, value); }
  // The value of `key`, or nullptr when the op did not report it.
  const double* Get(const char* key) const;
};

struct Span {
  const char* name = "";  // "<layer>.<call>", e.g. "engine.execute"
  double start_us = 0;    // since the run's epoch
  double end_us = 0;
  int parent = -1;        // index into the same span list; -1 = op root
  int64_t op = 0;
};

// One thread's spans. Ops nest one level: each op has a root span and its
// layer calls are the root's children.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  Op& BeginOp(const char* kind, bool timed);
  void EndOp();

  // Opens a child span of the current op; returns its index.
  int Open(const char* name);
  // Closes span `index`; returns its duration in µs.
  double Close(int index);

  std::vector<Op>& ops() { return ops_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Op> ops_;
  std::vector<Span> spans_;
  int root_ = -1;
};

// Runs `fn` inside a span named `name` when `log` is set; `*us` (optional)
// receives the span's duration.
template <typename Fn>
auto Timed(SpanLog* log, const char* name, Fn&& fn, double* us = nullptr) {
  if (log == nullptr) return fn();
  const int span = log->Open(name);
  auto result = fn();
  const double took = log->Close(span);
  if (us != nullptr) *us = took;
  return result;
}

// Everything the per-layer metrics are computed from.
struct TraceData {
  Clock::time_point epoch = Clock::now();  // time 0 of every span
  std::vector<Op> ops;
  std::vector<Span> spans;
  // Engine::stats() deltas summed over the traced timed rounds.
  EngineStats counts;
  uint64_t shared_cache_bytes = 0;  // largest Engine::stats() reading
  double traced_qps = 0;
  double untraced_qps = 0;

  // Moves one thread's log in, renumbering its ops and span parents.
  void Absorb(SpanLog* log);
};

// Engine::stats() counter deltas `after - before`, accumulated into `sum`.
void AddCountDeltas(const EngineStats& before, const EngineStats& after,
                    EngineStats* sum);

std::vector<Metric> LayerMetrics(const TraceData& trace);

void WriteTraceJson(const TraceData& trace, const std::string& workload,
                    uint64_t seed, std::ostream& out);

// Linear-interpolation percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

}  // namespace msql::e2e

#endif  // MSQL_BENCH_E2E_SPANS_H_
