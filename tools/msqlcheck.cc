// msqlcheck — differential & metamorphic testing driver for the measure
// engine (docs/TESTING.md).
//
// Modes:
//   msqlcheck --seeds=N [--start=S]   run N generated seeds through the
//                                     six-leg oracle, each in a forked
//                                     child (a crash fails its seed);
//                                     shrink + dump a repro for every
//                                     failing seed
//   msqlcheck --replay=FILE           replay a corpus / repro .sql script
//   msqlcheck --dump-seed=S           print the generated script for a seed
//
// Common flags:
//   --smoke            CI preset: smaller cases, tighter shrink budget
//   --repro-dir=DIR    where failing repros are written (default: repros)
//   --workers=N        parallelism of the grouped-parallel leg (default 4)
//   --no-expansion     skip the ExpandMeasures plain-SQL leg
//   --no-shrink        report failures without minimizing them
//   --no-metamorphic   generate differential checks only
//   --max-rows=N / --queries=N / --shrink-budget=N
//
// Exit status: 0 all checks passed, 1 discrepancies or crashes found, 2
// usage error.
// Output is deterministic for a fixed command line.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "testing/harness.h"

namespace {

using msql::testing::CaseOutcome;
using msql::testing::HarnessOptions;

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseIntFlag(const std::string& arg, const std::string& name,
                  int64_t* value) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  *value = std::strtoll(text.c_str(), nullptr, 10);
  return true;
}

int Usage() {
  std::cerr << "usage: msqlcheck --seeds=N [--start=S] [--smoke]\n"
            << "       msqlcheck --replay=FILE\n"
            << "       msqlcheck --dump-seed=S\n"
            << "see the header of tools/msqlcheck.cc for all flags\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seeds = -1;
  int64_t start = 1;
  int64_t dump_seed = -1;
  std::string replay_path;
  bool smoke = false;

  HarnessOptions options;
  options.repro_dir = "repros";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    std::string s;
    if (ParseIntFlag(arg, "seeds", &seeds) ||
        ParseIntFlag(arg, "start", &start) ||
        ParseIntFlag(arg, "dump-seed", &dump_seed) ||
        ParseFlag(arg, "replay", &replay_path)) {
      continue;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--no-expansion") {
      options.oracle.include_expansion = false;
    } else if (arg == "--no-shrink") {
      options.shrink_failures = false;
    } else if (arg == "--no-metamorphic") {
      options.generator.metamorphic = false;
    } else if (ParseIntFlag(arg, "workers", &n)) {
      options.oracle.measure_workers = static_cast<int>(n);
    } else if (ParseIntFlag(arg, "max-rows", &n)) {
      options.generator.max_rows = static_cast<int>(n);
    } else if (ParseIntFlag(arg, "queries", &n)) {
      options.generator.num_queries = static_cast<int>(n);
    } else if (ParseIntFlag(arg, "shrink-budget", &n)) {
      options.shrink_budget = static_cast<int>(n);
    } else if (ParseFlag(arg, "repro-dir", &s)) {
      options.repro_dir = s;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return Usage();
    }
  }

  if (smoke) {
    // CI preset: small enough that --seeds=200 stays well under a minute.
    options.generator.max_rows = 24;
    options.generator.num_queries = 3;
    options.shrink_budget = 150;
  }

  if (dump_seed >= 0) {
    std::cout << msql::testing::GenerateCase(
                     static_cast<uint64_t>(dump_seed), options.generator)
                     .ToSql();
    return 0;
  }

  if (!replay_path.empty()) {
    auto outcome = msql::testing::ReplayScriptFile(replay_path, options.oracle);
    if (!outcome.ok()) {
      std::cerr << "replay error: " << outcome.status().ToString() << "\n";
      return 2;
    }
    const CaseOutcome& o = outcome.value();
    for (const auto& f : o.failures) {
      std::cout << "FAIL [" << f.label << "] " << f.detail << "\n";
    }
    std::cout << replay_path << ": " << o.queries_run << " queries, "
              << o.expansion_skips << " expansion skips, "
              << o.failures.size() << " failures\n";
    return o.ok() ? 0 : 1;
  }

  if (seeds < 0) return Usage();

  auto summary = msql::testing::RunSeeds(static_cast<uint64_t>(start),
                                         static_cast<int>(seeds), options,
                                         &std::cout);
  std::cout << "msqlcheck: " << summary.seeds_run << " seeds, "
            << summary.queries_run << " queries, " << summary.expansion_skips
            << " expansion skips, " << summary.seeds_failed << " failed\n";
  return summary.ok() ? 0 : 1;
}
