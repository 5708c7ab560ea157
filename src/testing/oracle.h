#ifndef MSQL_TESTING_ORACLE_H_
#define MSQL_TESTING_ORACLE_H_

#include <string>
#include <vector>

#include "testing/case_spec.h"
#include "testing/compare.h"

namespace msql {
namespace testing {

struct OracleOptions {
  CompareOptions compare;
  // Worker count for the parallel-grouped leg (>1, or the leg degenerates
  // into the serial one).
  int measure_workers = 4;
  // Run the ExpandMeasures -> plain SQL leg (skipped automatically per
  // query when the expander reports the shape unsupported).
  bool include_expansion = true;
};

struct CheckFailure {
  size_t check_index = 0;
  std::string label;
  std::string detail;
};

struct CaseOutcome {
  int queries_run = 0;
  int expansion_skips = 0;
  // The case's DDL/DML itself failed (the run aborts). Distinguished so the
  // shrinker never "minimizes" a real discrepancy into a broken setup.
  bool setup_failed = false;
  std::vector<CheckFailure> failures;

  bool ok() const { return failures.empty(); }
};

// The six-leg differential oracle. Every query of every check runs under
// kNaive, kGrouped serial (measure_parallelism = 1) and kGrouped parallel
// (measure_parallelism = measure_workers), each under the row and the
// vectorized exec mode, on a fresh engine per leg so no cross-strategy
// cache can mask a divergence — plus the section-4.2 textual expansion
// executed as plain SQL. The naive legs run the literal evaluation (kNaive
// turns off every optimization: the plan rewrite, the caches, the value
// tables, the inline fast path and subquery memoization), so the other
// legs check each of them. The grouped-vec leg's engine has the plan cache
// on (setup included) and runs the query a second time as leg
// `grouped-vec-warm`: a raw-text plan-cache hit (which must be reported as
// one when the first run succeeded) over a warm shared measure cache, the
// path msqld serves a repeated dashboard statement on. Leg
// `grouped-vec-grown` runs the grouped-vec engine over a grown sequence:
// each table's first half of rows, the setup statements, the query (which
// warms the plan cache, the shared measure cache and the column images),
// one INSERT per table with its second half, and the query again. It is
// compared with `naive-row-grown`, a naive-row engine running the same
// statements without the intermediate query. Cases without table rows
// (replayed scripts) skip it.
// All runs of a query must agree: same success/error outcome (error codes
// must match), and on success, normalized-equal results. kEqualPair / kTlp
// checks additionally enforce their metamorphic relation on the default
// path's cold results.
CaseOutcome RunCase(const CaseSpec& spec, const OracleOptions& options = {});

}  // namespace testing
}  // namespace msql

#endif  // MSQL_TESTING_ORACLE_H_
