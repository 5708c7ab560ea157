#ifndef MSQL_OBS_OP_PROFILE_H_
#define MSQL_OBS_OP_PROFILE_H_

#include <cstdint>
#include <unordered_map>

#include "common/query_stats.h"

namespace msql {
struct LogicalPlan;  // plan/plan.h
}  // namespace msql

namespace msql::obs {

// Runtime statistics of one plan node, accumulated by the executor when a
// query runs under EXPLAIN ANALYZE. All values are *inclusive* of the
// node's subtree (children execute inside the parent's window); the
// renderer subtracts child totals to attribute per-node ("self") work.
// Cache counters are deltas of the ExecState instrumentation across the
// node's execution, so measure/subquery work done by an operator (e.g. the
// Aggregate measure-eval loop) lands on that operator.
struct OpStats : QueryCounters {
  uint64_t invocations = 0;  // "loops": >1 when re-executed (e.g. subplans)
  uint64_t rows_out = 0;     // total rows produced across invocations
  int64_t time_us = 0;
};

// Per-query profile, keyed by plan-node identity (stable within a query).
// Owned by the EXPLAIN ANALYZE driver; ExecState carries a pointer (null =>
// profiling off, the executor's default).
using PlanProfile = std::unordered_map<const LogicalPlan*, OpStats>;

}  // namespace msql::obs

#endif  // MSQL_OBS_OP_PROFILE_H_
