#ifndef MSQL_OBS_EXPLAIN_H_
#define MSQL_OBS_EXPLAIN_H_

#include <string>

#include "common/query_stats.h"
#include "exec/exec_state.h"
#include "obs/op_profile.h"
#include "plan/plan.h"

namespace msql::obs {

// Shared plan-tree renderer behind both `EXPLAIN` and `EXPLAIN ANALYZE`
// (and Engine::Explain). Both modes print each node's LogicalPlan label
// plus measure-expansion notes; with a profile attached, each node also
// gets its actual row count, wall time, and cache hit/miss deltas.
struct ExplainOptions {
  // Null renders plain EXPLAIN; set by EXPLAIN ANALYZE after execution.
  const PlanProfile* profile = nullptr;
  // The option snapshot the query (would) run with, for the strategy note.
  MeasureStrategy strategy = MeasureStrategy::kGrouped;
};

std::string RenderPlanTree(const LogicalPlan& plan,
                           const ExplainOptions& opts);

// The trailing query-wide summary of EXPLAIN ANALYZE output.
std::string RenderAnalyzeSummary(const QueryStats& stats,
                                 const ExplainOptions& opts);

// Terminal-status line for an EXPLAIN ANALYZE whose statement did not
// complete ("Outcome: deadline_exceeded (...)"): the plan tree is still
// rendered, annotated with why execution stopped.
std::string RenderAnalyzeOutcome(const Status& status);

}  // namespace msql::obs

#endif  // MSQL_OBS_EXPLAIN_H_
