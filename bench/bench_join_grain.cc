// Paper sections 3.6 / 6.3: grain preservation under one-to-many joins.
// Computing a customer-grain statistic through an order join:
//   * measure     — AGGREGATE(customer measure): the engine deduplicates via
//                   source row ids;
//   * dedup SQL   — the classic workaround: join, project the customer key,
//                   DISTINCT, re-join/aggregate;
//   * naive SQL   — plain SUM over the joined rows (WRONG result, shown for
//                   the cost of the error).
// Shape claim: the measure's cost tracks the dedup query while staying as
// simple to write as the naive one; the gap to naive grows with fan-out.
// A correctness check (every run, exit 1 on failure) asserts the measure
// returns the dedup answer.
//
// Sizes: {orders_per_customer, customers}.

#include <string>

#include "harness.h"
#include "workload.h"

namespace msql::bench {
namespace {

const char* const kMeasureGrain = R"sql(
  SELECT o.prodName, AGGREGATE(c.avgAge) AS avg_age,
         AGGREGATE(c.custCount) AS customers
  FROM Orders AS o JOIN EC AS c USING (custName)
  GROUP BY o.prodName
)sql";

// The manual workaround: distinct (product, customer) pairs first.
const char* const kDedupSql = R"sql(
  SELECT d.prodName, AVG(c.custAge) AS avg_age, COUNT(*) AS customers
  FROM (SELECT DISTINCT o.prodName, o.custName
        FROM Orders AS o) AS d
  JOIN Customers AS c ON d.custName = c.custName
  GROUP BY d.prodName
)sql";

// The tempting-but-wrong query: fan-out weighted average.
const char* const kNaiveWeightedSql = R"sql(
  SELECT o.prodName, AVG(c.custAge) AS avg_age, COUNT(*) AS joined_rows
  FROM Orders AS o JOIN Customers AS c ON o.custName = c.custName
  GROUP BY o.prodName
)sql";

struct Sizes {
  int fanout;
  int customers;
};
constexpr Sizes kSizes[] = {{1, 512}, {4, 512}, {16, 512}, {64, 512}};

// The measure's per-product customer count equals the dedup query's: the
// same number of groups, and the same count in each.
bool GrainAgrees() {
  Engine db;
  LoadOrders(&db, 4000, 32, 100);
  LoadCustomers(&db, 100);
  ResultSet m = CheckResult(db.Query(R"sql(
    SELECT o.prodName, AGGREGATE(c.custCount) AS n
    FROM Orders AS o JOIN EC AS c USING (custName)
    GROUP BY o.prodName ORDER BY o.prodName
  )sql"),
                            "measure");
  ResultSet d = CheckResult(db.Query(R"sql(
    SELECT prodName, COUNT(*) AS n
    FROM (SELECT DISTINCT o.prodName, o.custName FROM Orders AS o) AS x
    GROUP BY prodName ORDER BY prodName
  )sql"),
                            "dedup");
  std::printf("grain check: measure %zu groups, dedup %zu groups\n",
              m.num_rows(), d.num_rows());
  if (m.num_rows() != d.num_rows()) return false;
  for (size_t i = 0; i < m.num_rows(); ++i) {
    if (!Value::NotDistinct(m.Get(i, "n"), d.Get(i, "n"))) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Harness h("join_grain", argc, argv, /*rounds=*/5, /*smoke_rounds=*/1);
  h.Check("measure grain equals the dedup SQL", GrainAgrees());
  for (const Sizes& s : h.Sweep(kSizes)) {
    Engine db;
    LoadOrders(&db, s.fanout * s.customers, /*products=*/32, s.customers);
    LoadCustomers(&db, s.customers);
    Comparison& c =
        h.Compare("fanout=" + std::to_string(s.fanout) +
                      " customers=" + std::to_string(s.customers),
                  "ms");
    for (const auto& [name, sql] :
         {std::pair{"measure", kMeasureGrain},
          std::pair{"dedup_sql", kDedupSql},
          std::pair{"naive_sql", kNaiveWeightedSql}}) {
      c.Add(name, [&db, sql](Leg&) {
        ResultSet rs;
        return TimeQueryMs(&db, sql, &rs);
      });
    }
    c.Run(h.rounds());
    c.Ratio("measure_over_dedup", "measure", "dedup_sql");
  }
  return h.Finish();
}

}  // namespace
}  // namespace msql::bench

int main(int argc, char** argv) { return msql::bench::Main(argc, argv); }
