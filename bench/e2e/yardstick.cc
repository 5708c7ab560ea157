#include "yardstick.h"

#include <algorithm>
#include <chrono>
#include <memory_resource>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "inputs.h"

namespace msql::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRows = 4096;       // grouped rows per run
constexpr int kGroups = 500;      // distinct keys, as Orders has customers
constexpr int kColumn = 1 << 16;  // scanned values per run (512 KiB)
constexpr size_t kCacheLine = 64;

}  // namespace

Yardstick::Yardstick()
    : arena_(kArenaBytes), evict_(kEvictBytes / sizeof(int64_t), 1) {
  Rng rng(0x5A2D);
  for (int i = 0; i < kRows; ++i) {
    keys_.push_back("C" + std::to_string(rng.Uniform(0, kGroups - 1)));
    values_.push_back(rng.Uniform(1, 500));
  }
  for (int i = 0; i < kColumn; ++i) column_.push_back(rng.Uniform(0, 1000));
}

double Yardstick::RunMs() {
  int64_t touched = 0;
  for (size_t i = 0; i < evict_.size(); i += kCacheLine / sizeof(int64_t)) {
    touched += evict_[i];
  }
  const auto t0 = Clock::now();
  // Allocations come from the yardstick's own buffer, so the state the
  // engine left the heap in does not change the kernel's time.
  std::pmr::monotonic_buffer_resource pool(arena_.data(), arena_.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::string_view, std::pair<int64_t, int64_t>>
      groups(&pool);
  for (size_t i = 0; i < keys_.size(); ++i) {
    auto& g = groups[keys_[i]];
    g.first += values_[i];
    ++g.second;
  }
  std::pmr::vector<std::pair<std::string_view, int64_t>> sorted(&pool);
  sorted.reserve(groups.size());
  for (const auto& [key, g] : groups) sorted.emplace_back(key, g.first);
  std::sort(sorted.begin(), sorted.end());
  int64_t sum = 0;
  for (int64_t v : column_) sum += v * 3 + (v >> 2);
  sink_ += static_cast<uint64_t>(sum + touched) + sorted.size();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace msql::e2e
