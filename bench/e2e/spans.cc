#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>

#include "inputs.h"

namespace msql::e2e {

const double* Op::Get(const char* key) const {
  for (const auto& [k, v] : attrs) {
    if (std::strcmp(k, key) == 0) return &v;
  }
  return nullptr;
}

Op& SpanLog::BeginOp(const char* kind, bool timed) {
  Op op;
  op.id = static_cast<int64_t>(ops_.size());
  op.kind = kind;
  op.timed = timed;
  ops_.push_back(std::move(op));
  root_ = -1;
  root_ = Open(kind);
  return ops_.back();
}

void SpanLog::EndOp() {
  Close(root_);
  root_ = -1;
}

int SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.start_us = NowUs();
  span.parent = root_;
  span.op = ops_.back().id;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Close(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_us = NowUs();
  return span.end_us - span.start_us;
}

void TraceData::Absorb(SpanLog* log) {
  const int span_base = static_cast<int>(spans.size());
  const int64_t op_base = static_cast<int64_t>(ops.size());
  for (Span& span : log->spans()) {
    if (span.parent >= 0) span.parent += span_base;
    span.op += op_base;
    spans.push_back(span);
  }
  for (Op& op : log->ops()) {
    op.id += op_base;
    ops.push_back(std::move(op));
  }
  log->spans().clear();
  log->ops().clear();
}

void AddCountDeltas(const EngineStats& before, const EngineStats& after,
                    EngineStats* sum) {
  sum->queries += after.queries - before.queries;
  sum->measure_evals += after.measure_evals - before.measure_evals;
  sum->measure_cache_hits +=
      after.measure_cache_hits - before.measure_cache_hits;
  sum->measure_source_scans +=
      after.measure_source_scans - before.measure_source_scans;
  sum->measure_grouped_builds +=
      after.measure_grouped_builds - before.measure_grouped_builds;
  sum->measure_grouped_probes +=
      after.measure_grouped_probes - before.measure_grouped_probes;
  sum->shared_cache_hits += after.shared_cache_hits - before.shared_cache_hits;
  sum->shared_cache_misses +=
      after.shared_cache_misses - before.shared_cache_misses;
  sum->exec_vectorized_batches +=
      after.exec_vectorized_batches - before.exec_vectorized_batches;
  sum->exec_row_fallbacks +=
      after.exec_row_fallbacks - before.exec_row_fallbacks;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

namespace {

using OpFilter = std::function<bool(const Op&)>;

bool IsRead(const Op& op) { return std::strcmp(op.kind, "read") == 0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> AttrValues(const TraceData& t, const char* key,
                               const OpFilter& keep) {
  std::vector<double> out;
  for (const Op& op : t.ops) {
    const double* v = op.Get(key);
    if (v != nullptr && keep(op)) out.push_back(*v);
  }
  return out;
}

double SpanMean(const TraceData& t, const char* name) {
  std::vector<double> durations;
  for (const Span& s : t.spans) {
    if (std::strcmp(s.name, name) == 0) {
      durations.push_back(s.end_us - s.start_us);
    }
  }
  return Mean(durations);
}

// Median over templates of (mean measure-form execute time / mean
// plain-twin execute time), over timed reads.
double MeasureOverPlain(const TraceData& t) {
  std::map<std::pair<int, bool>, std::vector<double>> by_form;
  for (const Op& op : t.ops) {
    const double* v = op.Get("execute_us");
    if (v != nullptr && op.timed) by_form[{op.tmpl, op.measure}].push_back(*v);
  }
  std::vector<double> ratios;
  for (const auto& [key, values] : by_form) {
    if (!key.second) continue;
    auto plain = by_form.find({key.first, false});
    if (plain == by_form.end()) continue;
    const double plain_mean = Mean(plain->second);
    if (plain_mean > 0) ratios.push_back(Mean(values) / plain_mean);
  }
  return Percentile(std::move(ratios), 0.5);
}

}  // namespace

std::vector<Metric> LayerMetrics(const TraceData& t) {
  // Layers that run only on a plan-cache miss or a write are costed per
  // call wherever the call happened (set-up included); the rest per timed
  // read. Times are means: they add up across layers, percentiles do not.
  const OpFilter any_read = IsRead;
  const OpFilter timed_read = [](const Op& op) {
    return IsRead(op) && op.timed;
  };
  const OpFilter measure_read = [](const Op& op) {
    return IsRead(op) && op.measure;
  };
  const OpFilter timed_measure = [](const Op& op) {
    return IsRead(op) && op.timed && op.measure;
  };
  const OpFilter timed_plain = [](const Op& op) {
    return IsRead(op) && op.timed && !op.measure;
  };
  auto mean = [&](const char* key, const OpFilter& keep) {
    return Mean(AttrValues(t, key, keep));
  };
  const double timed_reads = static_cast<double>(
      std::count_if(t.ops.begin(), t.ops.end(), timed_read));
  auto per_query = [&](uint64_t count) {
    return Ratio(static_cast<double>(count), timed_reads);
  };

  std::vector<double> overhead;
  for (const Op& op : t.ops) {
    const double* rtt = op.Get("rtt_us");
    const double* server = op.Get("server_us");
    if (timed_read(op) && rtt != nullptr && server != nullptr) {
      overhead.push_back(*rtt - *server);
    }
  }
  // Timed reads, or — on wire, whose footer has no row counts — the
  // embedded reference reads of the same texts.
  double rows_charged = 0, rows_returned = 0;
  for (const Op& op : t.ops) {
    const double* charged = op.Get("rows_charged");
    const double* rows = op.Get("rows");
    if (charged != nullptr && rows != nullptr && (op.timed || !IsRead(op))) {
      rows_charged += *charged;
      rows_returned += *rows;
    }
  }
  const EngineStats& c = t.counts;

  return {
      {"parser.parse_us", mean("parse_us", any_read), "us"},
      {"binder.bind_us", mean("bind_us", any_read), "us"},
      {"binder.measure_expand_us", mean("measure_expand_us", measure_read),
       "us"},
      {"engine.prepare_us", mean("prepare_us", timed_read), "us"},
      {"engine.execute_us.measure", mean("execute_us", timed_measure), "us"},
      {"engine.execute_us.plain", mean("execute_us", timed_plain), "us"},
      {"measure.over_plain_ratio", MeasureOverPlain(t), "ratio"},
      {"measure.evals_per_query", per_query(c.measure_evals), "count"},
      {"measure.source_scans_per_query", per_query(c.measure_source_scans),
       "count"},
      {"measure.grouped_builds_per_query",
       per_query(c.measure_grouped_builds), "count"},
      {"measure.grouped_probes_per_query",
       per_query(c.measure_grouped_probes), "count"},
      {"measure.cache_hits_per_query", per_query(c.measure_cache_hits),
       "count"},
      {"exec.vectorized_batches_per_query",
       per_query(c.exec_vectorized_batches), "count"},
      {"exec.row_fallbacks_per_query", per_query(c.exec_row_fallbacks),
       "count"},
      {"exec.rows_per_result_row", Ratio(rows_charged, rows_returned),
       "ratio"},
      {"catalog.insert_us", SpanMean(t, "catalog.insert"), "us"},
      {"catalog.columnarize_us", SpanMean(t, "catalog.columnarize"), "us"},
      {"runtime.plan_cache_hit_ratio", mean("plan_cache_hit", timed_read),
       "ratio"},
      {"runtime.shared_cache_hit_ratio",
       Ratio(static_cast<double>(c.shared_cache_hits),
             static_cast<double>(c.shared_cache_hits + c.shared_cache_misses)),
       "ratio"},
      {"runtime.shared_cache_bytes", static_cast<double>(t.shared_cache_bytes),
       "bytes"},
      {"net.rtt_us", mean("rtt_us", timed_read), "us"},
      {"net.server_us", mean("server_us", timed_read), "us"},
      {"net.overhead_us", Mean(overhead), "us"},
      {"net.encode_us", mean("encode_us", timed_read), "us"},
      {"net.decode_us", mean("decode_us", timed_read), "us"},
      {"net.result_bytes", mean("result_bytes", timed_read), "bytes"},
      {"trace.overhead_pct",
       t.traced_qps > 0 ? 100 * (t.untraced_qps / t.traced_qps - 1) : 0, "%"},
  };
}

void WriteTraceJson(const TraceData& t, const std::string& workload,
                    uint64_t seed, std::ostream& out) {
  char buf[160];
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ",\n\"ops\": [";
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const Op& op = t.ops[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"id\": " << op.id << ", \"kind\": \""
        << op.kind << "\", \"template\": \""
        << (op.tmpl >= 0 ? TemplateName(op.tmpl) : "") << "\", \"measure\": " << (op.measure ? "true" : "false")
        << ", \"timed\": " << (op.timed ? "true" : "false");
    for (const auto& [key, value] : op.attrs) {
      std::snprintf(buf, sizeof(buf), ", \"%s\": %.3f", key, value);
      out << buf;
    }
    out << "}";
  }
  out << "],\n\"spans\": [";
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"op\": %lld}",
                  i > 0 ? ",\n" : "\n", i, s.name, s.start_us, s.end_us,
                  s.parent, static_cast<long long>(s.op));
    out << buf;
  }
  out << "]}\n";
}

}  // namespace msql::e2e
