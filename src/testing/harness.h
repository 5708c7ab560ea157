#ifndef MSQL_TESTING_HARNESS_H_
#define MSQL_TESTING_HARNESS_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "testing/generator.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"

namespace msql {
namespace testing {

// Ties the subsystem together for tools/msqlcheck and the replay tests:
// generate a case from a seed, run the six-leg oracle over it, and on
// failure shrink to a minimal spec and emit a self-contained .sql repro.

struct HarnessOptions {
  GeneratorOptions generator;
  OracleOptions oracle;
  // Minimize failing cases with the delta-debugging shrinker before
  // reporting; each predicate call re-runs the full oracle.
  bool shrink_failures = true;
  int shrink_budget = 300;
  // When non-empty, failing seeds write `seed_<N>.sql` repro scripts here
  // (directory is created if missing).
  std::string repro_dir;
  // Runs one case through the oracle (RunCase; tests substitute a runner
  // that misbehaves).
  std::function<CaseOutcome(const CaseSpec&, const OracleOptions&)> run_case =
      [](const CaseSpec& spec, const OracleOptions& options) {
        return RunCase(spec, options);
      };
};

struct SeedReport {
  uint64_t seed = 0;
  // Outcome on the un-shrunk generated case.
  CaseOutcome outcome;
  // Minimized self-contained repro script; empty when the seed passed.
  std::string repro_sql;
  // Path the repro was written to (empty unless repro_dir was set).
  std::string repro_path;
  ShrinkStats shrink_stats;

  bool ok() const { return outcome.ok(); }
};

SeedReport RunSeed(uint64_t seed, const HarnessOptions& options = {});

struct RunSummary {
  int seeds_run = 0;
  int seeds_failed = 0;
  int queries_run = 0;
  int expansion_skips = 0;
  std::vector<SeedReport> failures;

  bool ok() const { return seeds_failed == 0; }
};

// Runs seeds [first_seed, first_seed + count), each RunSeed in a forked
// child, so a crash fails only its own seed. A child that dies by a signal
// or exits abnormally counts as a failed seed with a `crash` failure; its
// case is shrunk with every candidate run in a child of its own (a
// candidate still fails when that child crashes too) and written to
// `repro_dir` like any repro. When `progress` is non-null, one line per
// failing seed (plus a periodic heartbeat) is streamed to it.
RunSummary RunSeeds(uint64_t first_seed, int count,
                    const HarnessOptions& options = {},
                    std::ostream* progress = nullptr);

// Replays a corpus / repro script (see CaseSpec::ToSql for the format)
// through the oracle. Errors are script-parse failures; oracle
// discrepancies are reported inside the outcome.
Result<CaseOutcome> ReplayScript(const std::string& text,
                                 const OracleOptions& options = {});
Result<CaseOutcome> ReplayScriptFile(const std::string& path,
                                     const OracleOptions& options = {});

}  // namespace testing
}  // namespace msql

#endif  // MSQL_TESTING_HARNESS_H_
