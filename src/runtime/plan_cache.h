#ifndef MSQL_RUNTIME_PLAN_CACHE_H_
#define MSQL_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "plan/plan.h"
#include "runtime/lru_cache.h"

namespace msql {

// A statement prepared once and executed many times: the bound,
// measure-expanded logical plan plus everything needed to validate later
// parameter bindings against it. Immutable after construction; shared
// between the plan cache, server-side prepared-statement registries and
// in-flight executions, so eviction never invalidates a running query.
struct PreparedPlan {
  std::string sql;        // statement text as prepared (trimmed)
  std::string canonical;  // canonical unparse of the parsed statement
  std::string user;       // binding user (definer security was applied)
  PlanPtr plan;           // bound + measure-expanded logical plan
  std::vector<TypeKind> param_types;  // declared positional parameter types
  int param_count = 0;    // `?` ordinals actually present in the statement
  uint64_t generation = 0;  // catalog data generation at bind time
  std::string fingerprint;  // structural identity (runtime/fingerprint.h)
  // Scans an msql_system table: the plan embeds a telemetry snapshot the
  // catalog generation does not version, so it is never cached, never
  // prepared, and its statement stays out of the shared measure cache.
  bool reads_system_tables = false;
};
using PreparedPlanPtr = std::shared_ptr<const PreparedPlan>;

// Cache key for one (user, statement text, parameter-type signature, plan
// form, catalog generation) tuple. `rewritten` tells the rewritten plan
// (plan/rewrite.h) from the literal one the naive strategy runs;
// `generation` is the catalog generation the plan is bound at (a probe
// names the current one), so a key never matches a plan bound against
// other data. The same bound plan is typically indexed twice: under the raw
// text a client sent and under the canonical unparse, so Engine::Query (raw
// text, pre-parse probe) and EXPLAIN ANALYZE (AST in hand, canonical probe)
// hit the same entry.
std::string PlanCacheKey(const std::string& user, const std::string& sql,
                         const std::vector<TypeKind>& param_types,
                         bool rewritten, uint64_t generation);

// Heuristic footprint of one cached plan: texts, fingerprint, and a fixed
// charge per plan node standing in for the bound tree (plans are
// pointer-rich; exact accounting is not worth the traversal).
uint64_t ApproxPlanBytes(const PreparedPlan& plan);

// Engine-wide cache of prepared plans keyed by PlanCacheKey
// (docs/NETWORKING.md), an LruCache holding PreparedPlans under the plan
// entry cap and byte budget. A hit skips parse, bind and measure expansion
// entirely, the dominant cost of the repeated-dashboard workload the
// paper's semantic layer serves. Freshness is the one rule of
// runtime/lru_cache.h: a catalog mutation purges every plan bound before it.
using PlanCache = LruCache;

}  // namespace msql

#endif  // MSQL_RUNTIME_PLAN_CACHE_H_
