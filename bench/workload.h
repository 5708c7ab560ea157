#ifndef MSQL_BENCH_WORKLOAD_H_
#define MSQL_BENCH_WORKLOAD_H_

// Shared workload generators for the benches. All generators are
// deterministic (seeded) so runs are comparable.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "common/date.h"
#include "common/string_util.h"
#include "engine/engine.h"

namespace msql::bench {

inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

template <typename T>
inline T CheckResult(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, r.status().ToString().c_str());
    std::abort();
  }
  return r.take();
}

// Runs `sql` once, aborting on error; stores the result in `*out` and
// returns the wall time in milliseconds. The shared cache is cleared
// first, so every round pays the query's own evaluation: a warm cache
// would time the previous round's cached measure values and subquery
// results instead of the strategy under test.
inline double TimeQueryMs(Engine* db, const std::string& sql, ResultSet* out) {
  db->shared_cache().Clear();
  const auto start = std::chrono::steady_clock::now();
  *out = CheckResult(db->Query(sql), sql.c_str());
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// One point of a sweep over the Orders workload (LoadOrders).
struct OrdersSize {
  int rows;
  int products;

  std::string Name() const {
    return StrCat("rows=", rows, " products=", products);
  }
};

// Creates an Orders table with `rows` rows spread over `products` products,
// `customers` customers and three years, plus the standard measure view EO
// (sumRevenue / margin / orderCount measures and an orderYear column).
inline void LoadOrders(Engine* db, int rows, int products, int customers,
                       uint32_t seed = 42) {
  Check(db->Execute(
            "CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, "
            "orderDate DATE, revenue INTEGER, cost INTEGER)"),
        "create Orders");
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> prod(0, products - 1);
  std::uniform_int_distribution<int> cust(0, customers - 1);
  std::uniform_int_distribution<int64_t> day(DaysFromCivil(2022, 1, 1),
                                             DaysFromCivil(2024, 12, 31));
  std::uniform_int_distribution<int> revenue(2, 500);
  std::vector<Row> data;
  data.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    int rev = revenue(rng);
    data.push_back({Value::String(StrCat("P", prod(rng))),
                    Value::String(StrCat("C", cust(rng))),
                    Value::Date(day(rng)), Value::Int(rev),
                    Value::Int(rev / 2 + 1)});
  }
  Check(db->InsertRows("Orders", std::move(data)), "load Orders");
  Check(db->Execute(R"sql(
    CREATE VIEW EO AS
    SELECT *, SUM(revenue) AS MEASURE sumRevenue,
           (SUM(revenue) - SUM(cost)) * 1.0 / SUM(revenue) AS MEASURE margin,
           COUNT(*) AS MEASURE orderCount,
           YEAR(orderDate) AS orderYear
    FROM Orders
  )sql"),
        "create EO");
}

// Creates Customers (one row per customer) for join benchmarks, plus the EC
// measure view (avgAge / custCount).
inline void LoadCustomers(Engine* db, int customers, uint32_t seed = 7) {
  Check(db->Execute(
            "CREATE TABLE Customers (custName VARCHAR, custAge INTEGER, "
            "segment VARCHAR)"),
        "create Customers");
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> age(16, 80);
  std::vector<Row> data;
  data.reserve(customers);
  for (int i = 0; i < customers; ++i) {
    data.push_back({Value::String(StrCat("C", i)), Value::Int(age(rng)),
                    Value::String(i % 3 == 0 ? "retail" : "pro")});
  }
  Check(db->InsertRows("Customers", std::move(data)), "load Customers");
  Check(db->Execute(R"sql(
    CREATE VIEW EC AS
    SELECT *, AVG(custAge) AS MEASURE avgAge, COUNT(*) AS MEASURE custCount
    FROM Customers
  )sql"),
        "create EC");
}

}  // namespace msql::bench

#endif  // MSQL_BENCH_WORKLOAD_H_
