#ifndef MSQL_BENCH_E2E_INPUTS_H_
#define MSQL_BENCH_E2E_INPUTS_H_

// Seeded inputs of msqlbench: the rows every workload loads and the
// statement texts it sends. Everything here is generated before any timing
// starts; the engine only ever sees the generated rows and texts.

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace msql::e2e {

// splitmix64: small, fast, and identical on every platform, so one seed
// names one input set everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Uniform(0, i - 1))]);
    }
  }

 private:
  uint64_t state_;
};

// Table sizes of one workload.
struct Sizes {
  int orders = 0;      // Orders rows loaded at set-up
  int products = 0;
  int customers = 0;
  int batches = 0;     // ingest: new-order batches (cycles) per round
  int batch_rows = 0;  // ingest: rows per batch
};

struct Dataset {
  std::vector<Row> orders;
  std::vector<Row> customers;
  std::vector<std::vector<Row>> new_orders;  // ingest batches, in order
  int64_t orders_revenue = 0;                // SUM(revenue) of `orders`
  std::vector<int64_t> batch_revenue;        // SUM(revenue) of each batch
};

// Orders(prodName, custName, orderDate, revenue, cost) over three years
// (2022-2024) and Customers(custName, custAge, segment).
Dataset GenerateData(uint64_t seed, const Sizes& sizes);

// DDL for the two tables, the EO (Orders) and EC (Customers) measure
// views, and — when `view_stack` > 0 — a stack of views L1..Ln over EO, each
// re-exporting the one below (a semantic layer whose binding re-expands
// every level).
std::vector<std::string> SchemaDdl();
std::vector<std::string> ViewDdl(int view_stack);

// The template family: eight paper-listing measure queries, each with a
// hand-written plain-SQL twin that must return the same rows.
inline constexpr int kTemplates = 8;
const char* TemplateName(int tmpl);  // 0 <= tmpl < kTemplates

struct Statement {
  std::string text;
  int tmpl = 0;
  bool measure = false;
};

struct Pair {
  Statement measure;
  Statement plain;
};

// `variants` parameterizations of every template, ordered by variant then
// template. The seed picks the parameters — year, product subset and LIMIT
// — from fixed per-template sets, so every seed gives the same mix of
// costs. Measure forms read `fact_view` (EO, or the top of a view stack);
// `with_limit` = false leaves LIMIT off every text.
std::vector<Pair> MakePairs(uint64_t seed, int variants, const Sizes& sizes,
                            const std::string& fact_view, bool with_limit);

}  // namespace msql::e2e

#endif  // MSQL_BENCH_E2E_INPUTS_H_
