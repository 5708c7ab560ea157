#ifndef MSQL_BENCH_E2E_YARDSTICK_H_
#define MSQL_BENCH_E2E_YARDSTICK_H_

// The machine's current speed, read off a fixed kernel that shares no code
// with the engine. The machines msqlbench runs on share their caches and
// memory with other tenants, and a query's wall time moves by a quarter
// within minutes as they come and go. The kernel does the kind of work a
// query does — hashes and groups strings, sorts the groups, scans an integer
// column — from a cold private cache, so its time moves with the engine's,
// while no change to the engine can move it. The workloads run it after
// every operation and every timing is divided by it (README.md, "Timings
// and the yardstick").

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace msql::e2e {

class Yardstick {
 public:
  // The kernel's median time on the machine the bounds were set on
  // (README.md); timings are reported as if every run had had that speed.
  static constexpr double kReferenceMs = 0.30;

  Yardstick();

  // Evicts the kernel's data from the core's private caches, whatever the
  // engine left in them, then runs the kernel once; returns the kernel's
  // wall time in ms.
  double RunMs();

 private:
  static constexpr size_t kArenaBytes = 1 << 20;
  static constexpr size_t kEvictBytes = 4 << 20;  // twice a 2 MiB L2

  std::vector<std::byte> arena_;  // every allocation of a run
  std::vector<int64_t> evict_;
  std::vector<std::string> keys_;
  std::vector<int64_t> values_;
  std::vector<int64_t> column_;
  uint64_t sink_ = 0;  // keeps the kernel's results observable
};

}  // namespace msql::e2e

#endif  // MSQL_BENCH_E2E_YARDSTICK_H_
