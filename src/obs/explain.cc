#include "obs/explain.h"

#include <cstdio>
#include <vector>

#include "common/string_util.h"

namespace msql::obs {

namespace {

std::string FormatMs(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

std::string StrategyNote(const ExplainOptions& opts) {
  std::string s;
  switch (opts.strategy) {
    case MeasureStrategy::kNaive:
      s = "naive";
      break;
    case MeasureStrategy::kMemoized:
      s = "memoized";
      break;
    case MeasureStrategy::kGrouped:
      s = "grouped";
      break;
  }
  if (opts.inline_visible_contexts) s += "+inline";
  return s;
}

// Which measure-expansion strategy actually fired at this node, from the
// observed counter deltas.
const char* FiredLabel(const OpStats& s) {
  const bool grouped = s.measure_grouped_probes > 0;
  const bool inlined = s.measure_inline_evals > 0;
  const bool scanned = s.measure_source_scans > 0;
  if (grouped + inlined + scanned > 1) return "mixed";
  if (grouped) return "grouped";
  if (inlined) return "inline";
  if (scanned) return "scan";
  return "cached";
}

void RenderNode(const LogicalPlan& plan, const ExplainOptions& opts,
                int indent, std::string* out) {
  std::string line(static_cast<size_t>(indent) * 2, ' ');
  line += plan.NodeLabel();

  // Measure-expansion notes, shared by EXPLAIN and EXPLAIN ANALYZE: which
  // measures this node defines (with their formulas) and how measure
  // references inside an Aggregate will be evaluated.
  std::vector<std::string> defs;
  for (const PlanMeasure& pm : plan.measures) {
    if (pm.define && pm.formula != nullptr) {
      defs.push_back(pm.name + " := " + pm.formula->ToString());
    }
  }
  if (!defs.empty()) line += " expands=[" + Join(defs, ", ") + "]";
  if (plan.kind == PlanKind::kAggregate && !plan.measure_evals.empty()) {
    line += " measure_eval=" + StrategyNote(opts);
  }

  if (opts.profile != nullptr) {
    auto it = opts.profile->find(&plan);
    if (it == opts.profile->end()) {
      line += " (never executed)";
    } else {
      // Time is inclusive of the subtree (children run inside the parent's
      // window, as in Postgres). Cache counters are attributed per node:
      // the recorded deltas are inclusive, so subtract the children's.
      OpStats self = it->second;
      for (const auto& child : plan.children) {
        auto cit = opts.profile->find(child.get());
        if (cit != opts.profile->end()) self.Subtract(cit->second);
      }
      line += StrCat(" (actual time=", FormatMs(it->second.time_us),
                     "ms rows=", it->second.rows_out,
                     " loops=", it->second.invocations, ")");
      if (self.exec_vectorized_batches > 0 || self.exec_row_fallbacks > 0) {
        const char* mode =
            self.exec_vectorized_batches == 0  ? "row"
            : self.exec_row_fallbacks == 0     ? "vectorized"
                                               : "mixed";
        line += StrCat(" exec=", mode,
                       " batches=", self.exec_vectorized_batches,
                       " fallbacks=", self.exec_row_fallbacks);
      }
      if (self.measure_evals > 0) {
        line += StrCat(" [measures: evals=", self.measure_evals,
                       " cache_hits=", self.measure_cache_hits,
                       " scans=", self.measure_source_scans,
                       " inline=", self.measure_inline_evals,
                       " grouped_builds=", self.measure_grouped_builds,
                       " grouped_probes=", self.measure_grouped_probes,
                       " shared_hits=", self.shared_cache_hits,
                       " shared_misses=", self.shared_cache_misses,
                       " fired=", FiredLabel(self), "]");
      }
      if (self.subquery_execs > 0 || self.subquery_cache_hits > 0) {
        line += StrCat(" [subqueries: execs=", self.subquery_execs,
                       " cache_hits=", self.subquery_cache_hits, "]");
      }
    }
  }

  *out += line;
  *out += "\n";
  for (const auto& child : plan.children) {
    RenderNode(*child, opts, indent + 1, out);
  }
}

}  // namespace

std::string RenderPlanTree(const LogicalPlan& plan,
                           const ExplainOptions& opts) {
  std::string out;
  RenderNode(plan, opts, 0, &out);
  return out;
}

std::string RenderAnalyzeSummary(const QueryStats& stats,
                                 const ExplainOptions& opts) {
  std::string out;
  out += StrCat("Execution: total=", FormatMs(stats.total_us),
                "ms rows_charged=", stats.rows_charged,
                " bytes_charged=", stats.bytes_charged, "\n");
  out += StrCat("Measures: evals=", stats.measure_evals,
                " cache_hits=", stats.measure_cache_hits,
                " source_scans=", stats.measure_source_scans,
                " inline_evals=", stats.measure_inline_evals,
                " grouped_builds=", stats.measure_grouped_builds,
                " grouped_probes=", stats.measure_grouped_probes,
                " parallel_tasks=", stats.measure_parallel_tasks,
                " shared_hits=", stats.shared_cache_hits,
                " shared_misses=", stats.shared_cache_misses,
                " strategy=", StrategyNote(opts), "\n");
  out += StrCat("Subqueries: execs=", stats.subquery_execs,
                " cache_hits=", stats.subquery_cache_hits, "\n");
  out += StrCat("Exec: vectorized_batches=", stats.exec_vectorized_batches,
                " row_fallbacks=", stats.exec_row_fallbacks, "\n");
  out += StrCat(
      "PlanCache: ",
      stats.plan_cache == QueryStats::PlanCacheOutcome::kHit    ? "hit"
      : stats.plan_cache == QueryStats::PlanCacheOutcome::kMiss ? "miss"
                                                                : "off",
      stats.plan_cache == QueryStats::PlanCacheOutcome::kHit
          ? " (bound plan reused; parse/bind/measure-expand skipped)"
          : "",
      "\n");
  return out;
}

namespace {

// snake_case label for the Outcome: line, stable for tests/dashboards.
const char* OutcomeLabel(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kResourceExhausted:
      return "resource_exhausted";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    default:
      return "error";
  }
}

}  // namespace

std::string RenderAnalyzeOutcome(const Status& status) {
  return StrCat("Outcome: ", OutcomeLabel(status.code()), " (",
                status.message(), ")\n");
}

}  // namespace msql::obs
