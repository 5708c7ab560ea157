#ifndef MSQL_BENCH_E2E_WORKLOADS_H_
#define MSQL_BENCH_E2E_WORKLOADS_H_

// The three msqlbench workloads (README.md): dashboard, ingest and wire.
// Each runs a fixed, seeded op sequence in whole rounds: every round does
// identical work, so table sizes and per-op work match across commits, and
// the run repeats rounds until its time budget is spent. Every client runs
// the yardstick (yardstick.h) after each of its timed operations, and each
// set-up after each of its warm-pass reads, so every timing can be read at
// one reference speed of the machine.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace msql::e2e {

inline constexpr const char* kWorkloads[] = {"dashboard", "ingest", "wire"};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // wall time of the rounds; whole rounds, at least one
  bool smoke = false;   // tiny sizes, for the ctest
  bool traced = false;  // alternate untraced and traced rounds
};

// One completed timed operation: its latency, and the machine's speed while
// it ran — the median yardstick time over the runs a client made right
// after it and after its neighbours in that client's sequence.
struct OpTime {
  enum Kind { kMeasure, kPlain, kWrite };
  Kind kind = kMeasure;
  int tmpl = -1;  // template of a read
  double ms = 0;
  double yardstick_ms = 0;
};

// One timed round: what it issued and completed, its completed operations,
// and the time its clients spent waiting on the system (the sum of their
// operations' latencies divided by the number of clients).
struct RoundStats {
  int64_t issued = 0;
  int64_t completed = 0;
  int clients = 1;
  double seconds = 0;
  std::vector<OpTime> ops;
};

// One set-up: its time in engine (and server) calls, and the median
// yardstick time between its warm-pass reads.
struct SetupTime {
  double seconds = 0;
  double yardstick_ms = 0;
};

struct Outcome {
  int64_t attempted = 0;   // operations issued in timed rounds
  int64_t failed = 0;      // operations that returned an error
  int64_t mismatched = 0;  // results that failed a correctness check
  std::vector<SetupTime> setups;   // one per set-up repetition
  std::vector<RoundStats> rounds;  // untraced timed rounds
  TraceData trace;                 // traced rounds (and traced set-ups)
  std::vector<std::pair<std::string, std::string>> env;
};

// Runs `cfg.workload`; false if the name is unknown.
bool RunWorkload(const Config& cfg, Outcome* out);

}  // namespace msql::e2e

#endif  // MSQL_BENCH_E2E_WORKLOADS_H_
